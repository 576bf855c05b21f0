package experiments

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"

	"fomodel/internal/cache"
	"fomodel/internal/iw"
	"fomodel/internal/workload"
)

// realArtifacts computes analysis artifacts of a few small traces, with
// and without a TLB, the way the daemon stores them.
func realArtifacts(tb testing.TB) []*AnalysisArtifact {
	tb.Helper()
	tlb := cache.DefaultTLB()
	var out []*AnalysisArtifact
	for _, name := range []string{"gzip", "mcf"} {
		tr, err := workload.Generate(name, 4000, 1)
		if err != nil {
			tb.Fatal(err)
		}
		s := NewSuite(4000, 1)
		scfg := s.statsConfig()
		if name == "mcf" {
			scfg.TLB = &tlb
		}
		a, err := AnalyzeAndStore(nil, tr, iw.DefaultWindows(), scfg)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, a)
	}
	return out
}

func encodeArtifact(tb testing.TB, a *AnalysisArtifact) []byte {
	tb.Helper()
	b, err := a.MarshalBinary()
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// FuzzAnalysisArtifact hardens the analysis codec against store payloads
// it did not write: decoding must never panic, a forged count must not
// allocate more than the payload could hold, and every payload that
// decodes must re-encode to exactly the same bytes (the format has one
// encoding per artifact). The corpus is seeded with real artifacts, one
// with a forged points count, and a truncated one.
func FuzzAnalysisArtifact(f *testing.F) {
	for _, a := range realArtifacts(f) {
		b := encodeArtifact(f, a)
		f.Add(b)
		forged := append([]byte(nil), b...)
		binary.LittleEndian.PutUint32(forged[4:], 0xffffffff)
		f.Add(forged)
		f.Add(b[:len(b)/2])
	}
	f.Add([]byte("FOA2"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var a AnalysisArtifact
		err := a.UnmarshalBinary(data)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 16*uint64(len(data))+64<<10 {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(data), grew)
		}
		if err != nil {
			return
		}
		b, err := a.MarshalBinary()
		if err != nil {
			t.Fatalf("decoded artifact does not re-encode: %v", err)
		}
		if !bytes.Equal(b, data) {
			t.Fatalf("re-encoding changed the payload:\nin:  %x\nout: %x", data, b)
		}
	})
}

// TestAnalysisArtifactRejectsMalformed covers the checks the codec adds
// beyond the store's checksum: magic, exact length, count bounds and
// map key order.
func TestAnalysisArtifactRejectsMalformed(t *testing.T) {
	a := realArtifacts(t)[1]
	good := encodeArtifact(t, a)
	var out AnalysisArtifact
	if err := out.UnmarshalBinary(good); err != nil {
		t.Fatalf("real artifact rejected: %v", err)
	}
	if !reflect.DeepEqual(&out, a) {
		t.Fatal("real artifact does not round-trip")
	}

	unsorted := &AnalysisArtifact{Points: a.Points, Law: a.Law, Summary: a.Summary.WithROB(a.Summary.ROBSize)}
	unsorted.Summary.LongMissGroups = map[int]int{1: 5, 2: 3}
	b := encodeArtifact(t, unsorted)
	// Swap the two (key, value) pairs of LongMissGroups in place.
	pair1 := appendInt(appendInt(nil, 1), 5)
	pair2 := appendInt(appendInt(nil, 2), 3)
	i := bytes.Index(b, append(append([]byte(nil), pair1...), pair2...))
	if i < 0 {
		t.Fatal("LongMissGroups pairs not found in the encoding")
	}
	copy(b[i:], pair2)
	copy(b[i+len(pair2):], pair1)

	forged := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(forged[4:], 0xffffffff)

	cases := map[string][]byte{
		"empty":          nil,
		"bad magic":      append([]byte("FOA1"), good[4:]...),
		"truncated":      good[:len(good)-1],
		"trailing byte":  append(append([]byte(nil), good...), 0),
		"forged count":   forged,
		"unsorted map":   b,
		"gob-like bytes": []byte{0x3a, 0xff, 0x81, 0x03, 0x01, 0x01},
	}
	for name, data := range cases {
		var out AnalysisArtifact
		if err := out.UnmarshalBinary(data); err == nil {
			t.Errorf("%s: payload accepted", name)
		}
	}
}

// TestAnalysisArtifactCodecCoversEveryField fails when a field of
// stats.Summary, iw.Point or iw.PowerLaw is added without being added
// to the codec: reflection sets every field, recursively, to a distinct
// non-zero value, and the round trip must reproduce all of them.
func TestAnalysisArtifactCodecCoversEveryField(t *testing.T) {
	var a AnalysisArtifact
	next := 0
	fillValue(t, reflect.ValueOf(&a).Elem(), &next)
	b := encodeArtifact(t, &a)
	var got AnalysisArtifact
	if err := got.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]reflect.Value{
		{reflect.ValueOf(a.Law), reflect.ValueOf(got.Law)},
		{reflect.ValueOf(a.Points[0]), reflect.ValueOf(got.Points[0])},
		{reflect.ValueOf(*a.Summary), reflect.ValueOf(*got.Summary)},
	} {
		want, have := pair[0], pair[1]
		for i := 0; i < want.NumField(); i++ {
			if !reflect.DeepEqual(want.Field(i).Interface(), have.Field(i).Interface()) {
				t.Errorf("%s.%s does not survive the round trip: %v -> %v", want.Type(),
					want.Type().Field(i).Name, want.Field(i).Interface(), have.Field(i).Interface())
			}
		}
	}
	if !reflect.DeepEqual(&got, &a) {
		t.Error("artifact does not survive the round trip")
	}
}

// fillValue sets v, which must be settable, to a non-zero value, drawing
// distinct increasing numbers from next so map keys come out sorted and
// no two fields hold the same value.
func fillValue(t *testing.T, v reflect.Value, next *int) {
	t.Helper()
	*next++
	n := *next
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(n))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(n))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(n) + 0.25)
	case reflect.String:
		v.SetString("field-" + string(rune('a'+n%26)))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillValue(t, v.Index(i), next)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fillValue(t, v.Index(i), next)
		}
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		for i := 0; i < 2; i++ {
			k := reflect.New(v.Type().Key()).Elem()
			e := reflect.New(v.Type().Elem()).Elem()
			fillValue(t, k, next)
			fillValue(t, e, next)
			v.SetMapIndex(k, e)
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillValue(t, v.Elem(), next)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillValue(t, v.Field(i), next)
		}
	default:
		t.Fatalf("fillValue: unsupported kind %s (%s); extend the codec and this test", v.Kind(), v.Type())
	}
	if v.IsZero() {
		t.Fatalf("fillValue left a %s zero", v.Type())
	}
}

// BenchmarkAnalysisArtifactDecode times decoding a served-size (100000
// instruction) analysis artifact, the decode a store-served predict
// pays.
func BenchmarkAnalysisArtifactDecode(b *testing.B) {
	tr, err := workload.Generate("mcf", 100000, 1)
	if err != nil {
		b.Fatal(err)
	}
	a, err := AnalyzeAndStore(nil, tr, iw.DefaultWindows(), NewSuite(100000, 1).statsConfig())
	if err != nil {
		b.Fatal(err)
	}
	data := encodeArtifact(b, a)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out AnalysisArtifact
		if err := out.UnmarshalBinary(data); err != nil {
			b.Fatal(err)
		}
	}
}
