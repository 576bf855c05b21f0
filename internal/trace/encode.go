package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"fomodel/internal/isa"
)

// Binary trace format:
//
//	magic   [4]byte  "FOT1"
//	nameLen uint16   length of the workload name
//	name    []byte
//	count   uint64   number of instructions
//	count × record:
//	  pc    uint64
//	  addr  uint64
//	  class uint8
//	  flags uint8    bit0 = taken
//	  dest  int16
//	  src1  int16
//	  src2  int16
//
// All integers are little-endian. The format exists so traces can be
// generated once (cmd/fosim -dump) and replayed across many experiments.

var magic = [4]byte{'F', 'O', 'T', '1'}

const recordSize = 8 + 8 + 1 + 1 + 2 + 2 + 2

// maxInstrs bounds any count field read from an encoded stream; a forged
// header can never demand an unreasonable allocation.
const maxInstrs = 1 << 31

// Write encodes the trace to w in the binary trace format.
func Write(w io.Writer, t *Trace) error {
	b, err := Encode(t)
	if err != nil {
		return err
	}
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("trace: write: %w", err)
	}
	return nil
}

// Encode returns the trace in the binary trace format, built in one
// buffer of exactly the encoded size.
func Encode(t *Trace) ([]byte, error) {
	if len(t.Name) > 0xffff {
		return nil, fmt.Errorf("trace: name too long (%d bytes)", len(t.Name))
	}
	buf := make([]byte, 0, len(magic)+2+len(t.Name)+8+recordSize*len(t.Instrs))
	buf = append(buf, magic[:]...)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(t.Name)))
	buf = append(buf, t.Name...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(t.Instrs)))
	off := len(buf)
	buf = buf[:cap(buf)]
	for i := range t.Instrs {
		encodeRecord((*[recordSize]byte)(buf[off:]), &t.Instrs[i])
		off += recordSize
	}
	return buf, nil
}

func encodeRecord(rec *[recordSize]byte, in *Instruction) {
	binary.LittleEndian.PutUint64(rec[0:8], in.PC)
	binary.LittleEndian.PutUint64(rec[8:16], in.Addr)
	rec[16] = uint8(in.Class)
	var flags uint8
	if in.Taken {
		flags |= 1
	}
	rec[17] = flags
	binary.LittleEndian.PutUint16(rec[18:20], uint16(in.Dest))
	binary.LittleEndian.PutUint16(rec[20:22], uint16(in.Src1))
	binary.LittleEndian.PutUint16(rec[22:24], uint16(in.Src2))
}

// Read decodes a trace previously written with Write.
func Read(r io.Reader) (*Trace, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("trace: read magic: %w", err)
	}
	if m != magic {
		return nil, fmt.Errorf("trace: bad magic %q", m[:])
	}
	var hdr [10]byte
	if _, err := io.ReadFull(br, hdr[0:2]); err != nil {
		return nil, fmt.Errorf("trace: read header: %w", err)
	}
	nameLen := int(binary.LittleEndian.Uint16(hdr[0:2]))
	nameBuf := make([]byte, nameLen)
	if _, err := io.ReadFull(br, nameBuf); err != nil {
		return nil, fmt.Errorf("trace: read name: %w", err)
	}
	if _, err := io.ReadFull(br, hdr[0:8]); err != nil {
		return nil, fmt.Errorf("trace: read count: %w", err)
	}
	count := binary.LittleEndian.Uint64(hdr[0:8])
	if count > maxInstrs {
		return nil, fmt.Errorf("trace: unreasonable instruction count %d", count)
	}
	// Do not trust the header's count for the allocation: a forged header
	// could demand gigabytes. Grow with the records actually present; a
	// truncated stream fails at the first short read.
	initial := count
	if initial > 1<<20 {
		initial = 1 << 20
	}
	t := &Trace{Name: string(nameBuf), Instrs: make([]Instruction, 0, initial)}
	// Decode in bulk chunks rather than one ReadFull per record: the
	// per-record call overhead dominates decode time for daemon-sized
	// traces, and the chunk bound keeps the guard above meaningful — a
	// forged count still cannot force a huge up-front allocation.
	const chunkRecords = 1 << 14
	buf := make([]byte, 0, chunkRecords*recordSize)
	for done := uint64(0); done < count; {
		n := count - done
		if n > chunkRecords {
			n = chunkRecords
		}
		b := buf[:int(n)*recordSize]
		if _, err := io.ReadFull(br, b); err != nil {
			return nil, fmt.Errorf("trace: read record %d: %w", done, err)
		}
		base := len(t.Instrs)
		t.Instrs = append(t.Instrs, make([]Instruction, n)...)
		for i := 0; i < int(n); i++ {
			decodeRecord((*[recordSize]byte)(b[i*recordSize:]), &t.Instrs[base+i])
		}
		done += n
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

func decodeRecord(rec *[recordSize]byte, in *Instruction) {
	in.PC = binary.LittleEndian.Uint64(rec[0:8])
	in.Addr = binary.LittleEndian.Uint64(rec[8:16])
	in.Class = isa.Class(rec[16])
	in.Taken = rec[17]&1 != 0
	in.Dest = int16(binary.LittleEndian.Uint16(rec[18:20]))
	in.Src1 = int16(binary.LittleEndian.Uint16(rec[20:22]))
	in.Src2 = int16(binary.LittleEndian.Uint16(rec[22:24]))
}
