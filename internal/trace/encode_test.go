package trace

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"fomodel/internal/isa"
)

func TestRoundTrip(t *testing.T) {
	tr := validTrace()
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != tr.Name {
		t.Fatalf("name %q, want %q", got.Name, tr.Name)
	}
	if len(got.Instrs) != len(tr.Instrs) {
		t.Fatalf("len %d, want %d", len(got.Instrs), len(tr.Instrs))
	}
	for i := range tr.Instrs {
		if got.Instrs[i] != tr.Instrs[i] {
			t.Fatalf("instr %d: %+v != %+v", i, got.Instrs[i], tr.Instrs[i])
		}
	}
}

// TestEncodeBytes pins the binary format byte for byte and checks that
// Encode sizes its buffer exactly.
func TestEncodeBytes(t *testing.T) {
	tr := &Trace{Name: "ab", Instrs: []Instruction{
		{PC: 0x0102, Addr: 0x0304, Class: isa.Load, Dest: 5, Src1: isa.RegNone, Src2: 0x0706},
		{PC: 0x08, Class: isa.Branch, Dest: isa.RegNone, Src1: 1, Src2: isa.RegNone, Taken: true},
	}}
	got, err := Encode(tr)
	if err != nil {
		t.Fatal(err)
	}
	want := "FOT1" + "\x02\x00" + "ab" + "\x02\x00\x00\x00\x00\x00\x00\x00" +
		"\x02\x01\x00\x00\x00\x00\x00\x00" + "\x04\x03\x00\x00\x00\x00\x00\x00" +
		string([]byte{byte(isa.Load)}) + "\x00" + "\x05\x00" + "\xff\xff" + "\x06\x07" +
		"\x08\x00\x00\x00\x00\x00\x00\x00" + "\x00\x00\x00\x00\x00\x00\x00\x00" +
		string([]byte{byte(isa.Branch)}) + "\x01" + "\xff\xff" + "\x01\x00" + "\xff\xff"
	if string(got) != want {
		t.Fatalf("Encode\n got %q\nwant %q", got, want)
	}
	if cap(got) != len(got) {
		t.Errorf("Encode buffer cap %d, len %d", cap(got), len(got))
	}
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if buf.String() != want {
		t.Errorf("Write and Encode differ")
	}
	if _, err := Encode(&Trace{Name: strings.Repeat("x", 1<<16)}); err == nil {
		t.Error("Encode accepted a name longer than the format allows")
	}
}

func TestRoundTripEmpty(t *testing.T) {
	tr := &Trace{Name: "empty"}
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 || got.Name != "empty" {
		t.Fatalf("got %q len %d", got.Name, got.Len())
	}
}

func TestReadRejectsBadMagic(t *testing.T) {
	if _, err := Read(strings.NewReader("NOPE....")); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestReadRejectsTruncation(t *testing.T) {
	tr := validTrace()
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{3, 5, 10, len(full) - 1} {
		if _, err := Read(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestReadRejectsInvalidDecodedTrace(t *testing.T) {
	tr := validTrace()
	tr.Instrs[0].Class = isa.Class(40) // invalid but encodable
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(&buf); err == nil {
		t.Fatal("invalid decoded trace accepted")
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(pcs []uint64, classes []uint8, taken []bool) bool {
		n := len(pcs)
		if len(classes) < n {
			n = len(classes)
		}
		if len(taken) < n {
			n = len(taken)
		}
		tr := &Trace{Name: "prop"}
		for i := 0; i < n; i++ {
			c := isa.Class(classes[i] % uint8(isa.NumClasses))
			in := Instruction{
				PC:    pcs[i],
				Class: c,
				Dest:  int16(i % isa.NumArchRegs),
				Src1:  isa.RegNone,
				Src2:  isa.RegNone,
			}
			if c == isa.Branch {
				in.Dest = isa.RegNone
				in.Taken = taken[i]
			}
			if c == isa.Load || c == isa.Store {
				in.Addr = pcs[i] ^ 0xffff
			}
			if c == isa.Store {
				in.Dest = isa.RegNone
			}
			tr.Instrs = append(tr.Instrs, in)
		}
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		if got.Len() != tr.Len() {
			return false
		}
		for i := range tr.Instrs {
			if got.Instrs[i] != tr.Instrs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
