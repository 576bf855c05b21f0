package artifact

import (
	"container/list"
	"sort"
	"strings"
)

// PinnedKind is the one artifact kind eviction never removes: the
// workload registry's index (internal/registry), a single small file
// whose loss would drop every registration at the next restart. Its
// bytes still count toward the size bound and in SizeBytes.
const PinnedKind = "registry"

// pinnedName reports whether a file name is a PinnedKind artifact:
// "registry-" + 64 hex digits + ".foa".
func pinnedName(name string) bool {
	return len(name) == len(PinnedKind)+1+64+len(".foa") &&
		strings.HasPrefix(name, PinnedKind+"-") && strings.HasSuffix(name, ".foa")
}

// index is a store's in-memory view of its directory: each file's size
// and the recency order eviction follows. It is built from one directory
// scan and then maintained by Put, Get and eviction, so a Put never
// lists the directory. Files written, read or deleted by another process
// are seen at the next scan (Store.reconcile).
type index struct {
	files map[string]*indexEntry
	lru   list.List // *indexEntry, least recently used first; pinned files are not on it
	total int64     // bytes of every file in files, pinned ones included
}

type indexEntry struct {
	name string
	size int64
	elem *list.Element // position in lru; nil for a pinned file
}

// newIndex builds an index from a directory scan, oldest modification
// time first. Every regular file counts, so a temp file left by a crash
// still counts against the bound and is evicted oldest first.
func newIndex(files []fileInfo) *index {
	sort.Slice(files, func(i, j int) bool { return files[i].mod < files[j].mod })
	x := &index{files: make(map[string]*indexEntry, len(files))}
	for _, f := range files {
		x.add(f.name, f.size)
	}
	return x
}

// add records a file of size bytes as the most recently used, replacing
// any entry of the same name.
func (x *index) add(name string, size int64) {
	x.drop(name)
	e := &indexEntry{name: name, size: size}
	if !pinnedName(name) {
		e.elem = x.lru.PushBack(e)
	}
	x.files[name] = e
	x.total += size
}

// touch marks a file most recently used; a name the index does not hold
// is left alone.
func (x *index) touch(name string) {
	if e, ok := x.files[name]; ok && e.elem != nil {
		x.lru.MoveToBack(e.elem)
	}
}

// drop forgets a file.
func (x *index) drop(name string) {
	e, ok := x.files[name]
	if !ok {
		return
	}
	if e.elem != nil {
		x.lru.Remove(e.elem)
	}
	delete(x.files, name)
	x.total -= e.size
}

// popOldest forgets and returns the least recently used unpinned file,
// or nil when there is none.
func (x *index) popOldest() *indexEntry {
	front := x.lru.Front()
	if front == nil {
		return nil
	}
	e := front.Value.(*indexEntry)
	x.drop(e.name)
	return e
}
