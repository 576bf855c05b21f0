package experiments

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"fomodel/internal/isa"
	"fomodel/internal/iw"
	"fomodel/internal/stats"
)

// Analysis artifact binary format, the store payload of an
// AnalysisArtifact:
//
//	magic        [4]byte  "FOA2" (the digit is analysisFormatVersion)
//	points       list of (w int64, i float64)
//	law          alpha, beta, r2 float64
//	summary:
//	  name                        uint32 length, then the bytes
//	  instructions                int64
//	  mix                         isa.NumClasses × float64
//	  branches, mispredicts       uint64
//	  mispredictGroups            map
//	  icacheShort, icacheLong     uint64
//	  dcacheShort, dcacheLong     uint64
//	  longMissGroups              map
//	  robSize                     int64
//	  longMissPositions           list of int32
//	  icacheMissGaps              list of int32
//	  dtlbMisses                  uint64
//	  tlbMissGroups               map
//	  tlbMissPositions            list of int32
//	  avgLatency                  float64
//
// A list is a uint32 count followed by its elements; a map is a uint32
// count followed by (key int64, value int64) pairs in strictly
// increasing key order. Floats are their IEEE-754 bits, so every value
// round-trips exactly and a store-served artifact yields responses
// byte-identical to a fresh computation. All integers are little-endian,
// like the trace formats of internal/trace. The decoder accepts only
// the exact encoding of some artifact: sorted map keys and no trailing
// bytes, so a decoded payload re-encodes to the same bytes.

var analysisMagic = [4]byte{'F', 'O', 'A', '0' + analysisFormatVersion}

// Encoded sizes of the fixed parts.
const (
	pointBytes   = 8 + 8
	lawBytes     = 3 * 8
	mapItemBytes = 8 + 8
	countBytes   = 4
)

// MarshalBinary encodes the artifact in the analysis artifact format,
// in one buffer of exactly the encoded size.
func (a *AnalysisArtifact) MarshalBinary() ([]byte, error) {
	s := a.Summary
	if s == nil {
		return nil, errors.New("experiments: encode analysis: nil summary")
	}
	size := len(analysisMagic) + countBytes + pointBytes*len(a.Points) + lawBytes +
		countBytes + len(s.Name) + 8 + 8*int(isa.NumClasses) + 2*8 +
		countBytes + mapItemBytes*len(s.MispredictGroups) + 4*8 +
		countBytes + mapItemBytes*len(s.LongMissGroups) + 8 +
		countBytes + 4*len(s.LongMissPositions) + countBytes + 4*len(s.ICacheMissGaps) + 8 +
		countBytes + mapItemBytes*len(s.TLBMissGroups) + countBytes + 4*len(s.TLBMissPositions) + 8
	b := make([]byte, 0, size)
	b = append(b, analysisMagic[:]...)
	b = appendCount(b, len(a.Points))
	for _, p := range a.Points {
		b = appendInt(b, p.W)
		b = appendFloat(b, p.I)
	}
	b = appendFloat(b, a.Law.Alpha)
	b = appendFloat(b, a.Law.Beta)
	b = appendFloat(b, a.Law.R2)

	b = appendCount(b, len(s.Name))
	b = append(b, s.Name...)
	b = appendInt(b, s.Instructions)
	for _, f := range s.Mix {
		b = appendFloat(b, f)
	}
	b = binary.LittleEndian.AppendUint64(b, s.Branches)
	b = binary.LittleEndian.AppendUint64(b, s.Mispredicts)
	b = appendMap(b, s.MispredictGroups)
	b = binary.LittleEndian.AppendUint64(b, s.ICacheShort)
	b = binary.LittleEndian.AppendUint64(b, s.ICacheLong)
	b = binary.LittleEndian.AppendUint64(b, s.DCacheShort)
	b = binary.LittleEndian.AppendUint64(b, s.DCacheLong)
	b = appendMap(b, s.LongMissGroups)
	b = appendInt(b, s.ROBSize)
	b = appendInt32s(b, s.LongMissPositions)
	b = appendInt32s(b, s.ICacheMissGaps)
	b = binary.LittleEndian.AppendUint64(b, s.DTLBMisses)
	b = appendMap(b, s.TLBMissGroups)
	b = appendInt32s(b, s.TLBMissPositions)
	b = appendFloat(b, s.AvgLatency)
	return b, nil
}

func appendCount(b []byte, n int) []byte { return binary.LittleEndian.AppendUint32(b, uint32(n)) }

func appendInt(b []byte, v int) []byte { return binary.LittleEndian.AppendUint64(b, uint64(int64(v))) }

func appendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

func appendInt32s(b []byte, vs []int32) []byte {
	b = appendCount(b, len(vs))
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	return b
}

func appendMap(b []byte, m map[int]int) []byte {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	b = appendCount(b, len(keys))
	for _, k := range keys {
		b = appendInt(b, k)
		b = appendInt(b, m[k])
	}
	return b
}

// UnmarshalBinary decodes an artifact written by MarshalBinary,
// replacing a's contents. It checks the magic, every count against the
// bytes that remain (so a forged count cannot allocate more than the
// payload holds), the map key order and the exact length. It does not
// check the artifact against a trace or window sweep; see
// LookupAnalysis.
func (a *AnalysisArtifact) UnmarshalBinary(data []byte) error {
	d := decoder{b: data}
	if m := d.take(len(analysisMagic)); d.err != nil || [4]byte(m) != analysisMagic {
		return errors.New("experiments: decode analysis: bad magic")
	}
	var out AnalysisArtifact
	if n := d.count(pointBytes); n > 0 {
		out.Points = make([]iw.Point, n)
		for i := range out.Points {
			out.Points[i] = iw.Point{W: d.int(), I: d.float()}
		}
	}
	out.Law = iw.PowerLaw{Alpha: d.float(), Beta: d.float(), R2: d.float()}

	s := &stats.Summary{}
	s.Name = string(d.take(d.count(1)))
	s.Instructions = d.int()
	for i := range s.Mix {
		s.Mix[i] = d.float()
	}
	s.Branches = d.uint64()
	s.Mispredicts = d.uint64()
	s.MispredictGroups = d.intMap()
	s.ICacheShort = d.uint64()
	s.ICacheLong = d.uint64()
	s.DCacheShort = d.uint64()
	s.DCacheLong = d.uint64()
	s.LongMissGroups = d.intMap()
	s.ROBSize = d.int()
	s.LongMissPositions = d.int32s()
	s.ICacheMissGaps = d.int32s()
	s.DTLBMisses = d.uint64()
	s.TLBMissGroups = d.intMap()
	s.TLBMissPositions = d.int32s()
	s.AvgLatency = d.float()
	if d.err == nil && len(d.b) != 0 {
		d.err = fmt.Errorf("%d trailing bytes", len(d.b))
	}
	if d.err != nil {
		return fmt.Errorf("experiments: decode analysis: %w", d.err)
	}
	out.Summary = s
	*a = out
	return nil
}

// decoder reads the analysis format from a byte slice. The first
// failure sticks in err; later reads return zero values.
type decoder struct {
	b   []byte
	err error
}

var errShort = errors.New("payload truncated")

// take consumes the next n bytes.
func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n > len(d.b) {
		d.err = errShort
		return nil
	}
	p := d.b[:n]
	d.b = d.b[n:]
	return p
}

func (d *decoder) uint64() uint64 {
	if p := d.take(8); d.err == nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

func (d *decoder) int() int { return int(int64(d.uint64())) }

func (d *decoder) float() float64 { return math.Float64frombits(d.uint64()) }

// count reads a list or map length whose elements take elemBytes each,
// failing when the rest of the payload cannot hold them.
func (d *decoder) count(elemBytes int) int {
	p := d.take(countBytes)
	if d.err != nil {
		return 0
	}
	n := uint64(binary.LittleEndian.Uint32(p))
	if n*uint64(elemBytes) > uint64(len(d.b)) {
		d.err = fmt.Errorf("count %d exceeds the %d bytes left", n, len(d.b))
		return 0
	}
	return int(n)
}

// int32s reads a list of int32; an empty list decodes as nil, which is
// what stats.Analyze leaves when no event occurs.
func (d *decoder) int32s() []int32 {
	n := d.count(4)
	if n == 0 {
		return nil
	}
	vs := make([]int32, n)
	p := d.take(4 * n)
	for i := range vs {
		vs[i] = int32(binary.LittleEndian.Uint32(p[4*i:]))
	}
	return vs
}

// intMap reads a map written in increasing key order, rejecting any
// other order so the encoding of a map stays unique.
func (d *decoder) intMap() map[int]int {
	n := d.count(mapItemBytes)
	m := make(map[int]int, n)
	for i, last := 0, 0; i < n; i++ {
		k, v := d.int(), d.int()
		if i > 0 && k <= last {
			d.err = fmt.Errorf("map key %d out of order", k)
			return m
		}
		m[k], last = v, k
	}
	return m
}
