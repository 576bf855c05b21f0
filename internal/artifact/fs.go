package artifact

import (
	"io"
	"os"
	"time"
)

// fileSystem is the file-system surface the store runs on. Production
// stores use osFS; it exists so tests can substitute a deterministic
// fault injector (ENOSPC, short writes, failed renames and removes, a
// read-only directory, changes behind the index's back) and count the
// directory scans.
type fileSystem interface {
	CreateTemp(dir, pattern string) (tempFile, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	ReadFile(name string) ([]byte, error)
	// ReadDir lists the regular files in dir with their sizes and
	// modification times.
	ReadDir(dir string) ([]fileInfo, error)
	Chtimes(name string, atime, mtime time.Time) error
}

// tempFile is the part of *os.File a Put uses.
type tempFile interface {
	io.Writer
	Close() error
	Name() string
}

// fileInfo is one regular file of a directory scan.
type fileInfo struct {
	name string
	size int64
	mod  int64 // modification time, Unix nanoseconds
}

// osFS is the real file system.
type osFS struct{}

func (osFS) CreateTemp(dir, pattern string) (tempFile, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (osFS) Chtimes(name string, atime, mtime time.Time) error {
	return os.Chtimes(name, atime, mtime)
}

func (osFS) ReadDir(dir string) ([]fileInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	files := make([]fileInfo, 0, len(entries))
	for _, e := range entries {
		info, err := e.Info()
		if err != nil || !info.Mode().IsRegular() {
			continue // removed since the listing, or not a file
		}
		files = append(files, fileInfo{name: e.Name(), size: info.Size(), mod: info.ModTime().UnixNano()})
	}
	return files, nil
}
