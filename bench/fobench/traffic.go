package main

import (
	"encoding/json"
	"math/rand/v2"
	"sort"
)

// builtins are the twelve built-in workload profiles in the daemon's
// report order. The list is fixed here, not read from internal/workload,
// so the generated traffic cannot change when the program under test does.
var builtins = []string{"bzip", "crafty", "eon", "gap", "gcc", "gzip", "mcf", "parser", "perl", "twolf", "vortex", "vpr"}

// sweepValues are the values a generated sweep may draw for each
// parameter. Every one is valid against the baseline machine: ROB sizes
// never fall below its 48-entry window, and window cells raise the ROB
// themselves.
var sweepValues = []struct {
	param  string
	values []int
}{
	{"depth", stepRange(2, 20, 1)},
	{"rob", stepRange(48, 256, 16)},
	{"width", stepRange(1, 8, 1)},
	{"window", stepRange(8, 128, 8)},
}

func stepRange(lo, hi, step int) []int {
	var out []int
	for v := lo; v <= hi; v += step {
		out = append(out, v)
	}
	return out
}

// request is one API call the load process sends.
type request struct {
	Path string
	Body []byte
}

type predictBody struct {
	Bench   string       `json:"bench"`
	Seed    uint64       `json:"seed,omitempty"`
	Machine *machineBody `json:"machine,omitempty"`
}

type machineBody struct {
	ROB int `json:"rob,omitempty"`
}

type sweepBody struct {
	Param   string   `json:"param"`
	Benches []string `json:"benches"`
	Values  []int    `json:"values"`
}

// mustJSON marshals one of the body types above, which cannot fail.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// predictReq is a model-only /v1/predict call; seed 0 and rob 0 leave the
// daemon's defaults in place.
func predictReq(bench string, seed uint64, rob int) request {
	b := predictBody{Bench: bench, Seed: seed}
	if rob != 0 {
		b.Machine = &machineBody{ROB: rob}
	}
	return request{Path: "/v1/predict", Body: mustJSON(b)}
}

func sweepReq(param string, benches []string, values []int) request {
	return request{Path: "/v1/sweep", Body: mustJSON(sweepBody{Param: param, Benches: benches, Values: values})}
}

// hotKeys is hot-direct's working set: 8 built-ins × ROB 128/160/192.
func hotKeys() []request {
	var out []request
	for _, b := range builtins[:8] {
		for _, rob := range []int{128, 160, 192} {
			out = append(out, predictReq(b, 0, rob))
		}
	}
	return out
}

// storeKeys is fleet-store's working set: 12 built-ins × ROB 96..208
// step 16, six times the fleet's total response-cache capacity.
func storeKeys() []request {
	var out []request
	for _, b := range builtins {
		for rob := 96; rob <= 208; rob += 16 {
			out = append(out, predictReq(b, 0, rob))
		}
	}
	return out
}

// Stream identifiers keep the random streams of different traffic kinds
// apart under one load seed.
const (
	streamOrder uint64 = iota + 1
	streamCold
	streamSweep
	streamProbe
)

// rngAt is the generator of element i of one stream: every request is a
// pure function of (seed, stream, i), so the same seed yields
// byte-identical requests however the two clients interleave.
func rngAt(seed, stream uint64, i int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream<<48^uint64(i)))
}

// traffic is one workload's request sequence.
type traffic struct {
	// keys, when set, is a fixed working set visited cyclically in a
	// seed-shuffled order; otherwise gen produces every element fresh.
	keys  []request
	order []int
	gen   func(i int) request
}

func (t traffic) at(i int) request {
	if t.keys != nil {
		return t.keys[t.order[i%len(t.order)]]
	}
	return t.gen(i)
}

func cyclic(keys []request, seed uint64) traffic {
	return traffic{keys: keys, order: rngAt(seed, streamOrder, 0).Perm(len(keys))}
}

// coldTraffic draws a built-in and a never-repeated trace seed for every
// request, so each one misses every cache the daemon has.
func coldTraffic(seed uint64) traffic {
	return traffic{gen: func(i int) request {
		bench := builtins[rngAt(seed, streamCold, i).IntN(len(builtins))]
		return predictReq(bench, coldSeed(seed, i), 0)
	}}
}

// coldSeed maps (load seed, request index) to a trace seed. splitmix64's
// finalizer is a bijection, so distinct indices under one load seed never
// collide; the result is kept below 2^53 and clear of the daemon's
// default seed 1 and the "use the default" value 0.
func coldSeed(seed uint64, i int) uint64 {
	z := seed<<32 ^ uint64(i)
	z += 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	return z>>11 + 2
}

// sweepTraffic draws a fresh 3-bench × 4-value grid over one parameter
// for every request.
func sweepTraffic(seed uint64) traffic {
	return traffic{gen: func(i int) request {
		r := rngAt(seed, streamSweep, i)
		sv := sweepValues[r.IntN(len(sweepValues))]
		var benches []string
		for _, j := range sortedPick(r, len(builtins), 3) {
			benches = append(benches, builtins[j])
		}
		var values []int
		for _, j := range sortedPick(r, len(sv.values), 4) {
			values = append(values, sv.values[j])
		}
		return sweepReq(sv.param, benches, values)
	}}
}

// sortedPick returns k distinct indices below n in ascending order.
func sortedPick(r *rand.Rand, n, k int) []int {
	idx := r.Perm(n)[:k]
	sort.Ints(idx)
	return idx
}

// verificationSet is the fixed request set every run replays against
// the live system after its timed phase. It does not depend on the load
// seed, so its response digests are goldens: 8 hot keys, 8 keys
// fleet-store serves from its artifact stores, 8 cold trace seeds and 4
// sweeps, one per parameter.
func verificationSet() []request {
	var out []request
	for _, b := range builtins[:8] {
		out = append(out, predictReq(b, 0, 160))
	}
	for i, b := range builtins[4:] {
		out = append(out, predictReq(b, 0, 96+16*i))
	}
	for i := 0; i < 8; i++ {
		out = append(out, predictReq(builtins[(5*i+1)%len(builtins)], uint64(101+i), 0))
	}
	return append(out,
		sweepReq("width", []string{"gzip", "mcf", "vpr"}, []int{2, 4, 6, 8}),
		sweepReq("depth", []string{"gap", "perl", "twolf"}, []int{3, 7, 12, 20}),
		sweepReq("rob", []string{"gap", "mcf", "twolf"}, []int{64, 128, 192, 256}),
		sweepReq("window", []string{"gzip", "vortex", "vpr"}, []int{16, 32, 64, 96}),
	)
}

// verificationClass names the part of the verification set index i
// belongs to.
func verificationClass(i int) string {
	return [...]string{"hot", "store", "cold", "sweep"}[min(i/8, 3)]
}
