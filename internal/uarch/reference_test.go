package uarch

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"fomodel/internal/cache"
	"fomodel/internal/isa"
	"fomodel/internal/rng"
	"fomodel/internal/stats"
	"fomodel/internal/trace"
	"fomodel/internal/workload"
)

// reference runs the scan on what run simulates: under
// SerializeLongMisses, the isolated events with the option off.
func reference(tr *trace.Trace, cfg Config, preps []stats.Event) (*Result, error) {
	if cfg.SerializeLongMisses {
		preps = stats.IsolateLongMisses(tr, preps, cfg.ROBSize)
		cfg.SerializeLongMisses = false
	}
	res, _, err := scan(tr, cfg, preps)
	return res, err
}

// checkAgainstReference runs run and its reference on the same inputs
// and requires identical Results, or identical errors.
func checkAgainstReference(t *testing.T, name string, tr *trace.Trace, cfg Config, preps []stats.Event) {
	t.Helper()
	got, gotErr := run(tr, cfg, preps)
	want, wantErr := reference(tr, cfg, preps)
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("%s: error %v, oracle %v", name, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: result differs from the oracle\n got  %+v\n want %+v", name, got, want)
	}
}

// namedConfig is one machine of the differential grid.
type namedConfig struct {
	name string
	cfg  Config
}

// differentialConfigs spans every timing-side knob of Config: the sweep
// ranges of widths, windows, ROBs and depths, in-order issue, clusters
// with bypass, FU caps, the fetch buffer, the TLB, the isolation and
// ideal toggles, issue tracing, and latencies past the issue-slot ring's
// horizon.
func differentialConfigs() []namedConfig {
	var out []namedConfig
	add := func(name string, mutate func(c *Config)) {
		c := DefaultConfig()
		mutate(&c)
		out = append(out, namedConfig{name, c})
	}
	add("base", func(*Config) {})
	for w := 1; w <= 8; w++ {
		add(fmt.Sprintf("width%d", w), func(c *Config) { c.Width = w })
	}
	for _, win := range []int{8, 16, 32, 64, 96, 128} {
		add(fmt.Sprintf("window%d", win), func(c *Config) {
			c.WindowSize = win
			c.ROBSize = max(c.ROBSize, win)
		})
	}
	for _, rob := range []int{48, 64, 100, 192, 256} {
		add(fmt.Sprintf("rob%d", rob), func(c *Config) { c.ROBSize = rob })
	}
	for _, d := range []int{2, 9, 20} {
		add(fmt.Sprintf("depth%d", d), func(c *Config) { c.FrontEndDepth = d })
	}
	add("inorder", func(c *Config) { c.InOrder = true })
	add("inorder-width1", func(c *Config) { c.InOrder, c.Width = true, 1 })
	add("clusters2", func(c *Config) { c.Clusters, c.BypassLatency = 2, 1 })
	add("clusters4", func(c *Config) { c.Clusters, c.BypassLatency = 4, 3 })
	add("clusters2-nobypass", func(c *Config) { c.Clusters = 2 })
	add("fu-caps", func(c *Config) {
		c.FUCounts[isa.Load], c.FUCounts[isa.ALU], c.FUCounts[isa.Mul] = 1, 2, 1
	})
	add("fetch-buffer", func(c *Config) { c.FetchBufferSize = 16 })
	add("tlb", func(c *Config) {
		tlb := cache.DefaultTLB()
		c.TLB = &tlb
	})
	add("serialize", func(c *Config) { c.SerializeLongMisses = true })
	add("ideal-icache", func(c *Config) { c.IdealICache = true })
	add("ideal-dcache", func(c *Config) { c.IdealDCache = true })
	add("ideal-predictor", func(c *Config) { c.IdealPredictor = true })
	add("ideal-all", func(c *Config) { c.IdealICache, c.IdealDCache, c.IdealPredictor = true, true, true })
	add("issue-trace", func(c *Config) { c.RecordIssueTrace = true })
	add("inorder-clusters-fu", func(c *Config) {
		c.InOrder, c.Clusters, c.BypassLatency = true, 2, 2
		c.FUCounts[isa.Load] = 1
	})
	add("everything", func(c *Config) {
		tlb := cache.DefaultTLB()
		c.Width, c.WindowSize, c.ROBSize = 8, 64, 96
		c.Clusters, c.BypassLatency = 4, 2
		c.FUCounts[isa.Load], c.FUCounts[isa.Branch] = 2, 1
		c.FetchBufferSize, c.TLB, c.RecordIssueTrace = 8, &tlb, true
	})
	add("past-horizon", func(c *Config) {
		tlb := cache.DefaultTLB()
		tlb.MissLatency = 900
		c.TLB = &tlb
		c.Hierarchy.LongMissLatency = 1500
		c.Latencies[isa.Div] = 700
		c.Clusters, c.BypassLatency = 2, 600
	})
	return out
}

// TestRunMatchesReference compares the pass with the scan on every
// built-in workload across the differential config grid.
func TestRunMatchesReference(t *testing.T) {
	n := 20000
	if testing.Short() {
		n = 3000
	}
	configs := differentialConfigs()
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			tr, err := workload.Generate(name, n, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, nc := range configs {
				if err := nc.cfg.Validate(); err != nil {
					t.Fatalf("%s: %v", nc.name, err)
				}
				preps, err := Classify(tr, nc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				checkAgainstReference(t, nc.name, tr, nc.cfg, preps)
			}
		})
	}
}

// TestIsolatedLongMissesNeverOverlap checks the paper's §4.3 property
// behind SerializeLongMisses on every built-in workload across the
// differential grid: on the isolated events, the scan never charges a
// long data miss while another is outstanding.
func TestIsolatedLongMissesNeverOverlap(t *testing.T) {
	n := 20000
	if testing.Short() {
		n = 3000
	}
	configs := differentialConfigs()
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			tr, err := workload.Generate(name, n, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, nc := range configs {
				preps, err := Classify(tr, nc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, stacked, err := scan(tr, nc.cfg, stats.IsolateLongMisses(tr, preps, nc.cfg.ROBSize))
				if err != nil {
					t.Fatalf("%s: %v", nc.name, err)
				}
				if stacked != 0 {
					t.Errorf("%s: %d of %d isolated long misses charged while another was outstanding",
						nc.name, stacked, res.DCacheLong)
				}
			}
		})
	}
}

// TestSimulateWithEventsMatchesReference drives the pass through
// SimulateWithEvents with synthetic events, denser than any built-in's,
// including TLB misses.
func TestSimulateWithEventsMatchesReference(t *testing.T) {
	tr, err := workload.Generate("gcc", 5000, 2)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(7)
	events := make([]stats.Event, tr.Len())
	for i := range events {
		events[i] = stats.NewEvent(cache.Result(r.Intn(3)), cache.Result(r.Intn(3)), r.Bool(0.1), r.Bool(0.05))
	}
	for _, nc := range differentialConfigs() {
		cfg := nc.cfg
		if cfg.TLB == nil {
			tlb := cache.DefaultTLB()
			cfg.TLB = &tlb
		}
		got, err := SimulateWithEvents(tr, events, cfg)
		if err != nil {
			t.Fatalf("%s: %v", nc.name, err)
		}
		want, err := reference(tr, cfg, events)
		if err != nil {
			t.Fatalf("%s: oracle: %v", nc.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: result differs from the oracle\n got  %+v\n want %+v", nc.name, got, want)
		}
	}
}

// TestRunDeadlockMatchesReference checks that a machine which cannot
// retire within maxIdleCycles fails with the oracle's exact error.
func TestRunDeadlockMatchesReference(t *testing.T) {
	tr := chain(50)
	cfg := testConfig()
	cfg.Latencies[isa.ALU] = maxIdleCycles
	preps, err := Classify(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run(tr, cfg, preps); err == nil || !strings.Contains(err.Error(), "deadlocked") {
		t.Fatalf("want a deadlock error, got %v", err)
	}
	checkAgainstReference(t, "deadlock", tr, cfg, preps)
}

// FuzzRun decodes arbitrary bytes into a small machine, a trace and its
// miss events, and checks the pass against the scan. The header
// covers clusters with bypass, in-order issue, FU caps, the TLB, the
// fetch buffer, and latencies past the issue-slot ring's horizon.
func FuzzRun(f *testing.F) {
	f.Add([]byte{3, 47, 80, 4, 0, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add([]byte{7, 15, 0, 2, 0x21, 0x9, 0x3, 0xff, 0x80, 5, 0, 0x80, 0x80, 0x1a, 4, 1, 0, 0x80, 0x04})
	f.Add([]byte{1, 3, 1, 0, 0xff, 0x2, 0xff, 0x10, 0x40, 6, 1, 1, 1, 0x3f, 3, 2, 2, 2, 0x24, 2, 3, 3, 3, 0x08})
	f.Fuzz(func(t *testing.T, data []byte) {
		const header = 9
		if len(data) < header {
			return
		}
		cfg := DefaultConfig()
		cfg.Width = 1 + int(data[0])%8
		cfg.WindowSize = 1 + int(data[1])%64
		cfg.ROBSize = cfg.WindowSize + int(data[2])%200
		cfg.FrontEndDepth = 1 + int(data[3])%8
		flags := data[4]
		cfg.InOrder = flags&1 != 0
		cfg.IdealICache = flags&2 != 0
		cfg.IdealDCache = flags&4 != 0
		cfg.IdealPredictor = flags&8 != 0
		cfg.SerializeLongMisses = flags&16 != 0
		cfg.RecordIssueTrace = flags&32 != 0
		if flags&64 != 0 {
			cfg.FetchBufferSize = 1 + int(data[3]>>4)
		}
		if flags&128 != 0 {
			cfg.TLB = &cache.TLBConfig{Entries: 4, PageBytes: 4096, MissLatency: 1 + 8*int(data[8])}
		}
		if c := []int{1, 2, 4}[int(data[5]&3)%3]; cfg.Width%c == 0 && cfg.WindowSize%c == 0 {
			cfg.Clusters, cfg.BypassLatency = c, int(data[5]>>2)
		}
		for c := isa.Class(0); c < isa.NumClasses; c++ {
			if data[6]>>c&1 != 0 {
				cfg.FUCounts[c] = 1 + int(c)%2
			}
			cfg.Latencies[c] = 1 + int(data[7]>>(c%4))%16
		}
		// Long misses from 1 to 2041 cycles: past the ring's horizon.
		cfg.Hierarchy.LongMissLatency = 1 + 8*int(data[8])
		cfg.Hierarchy.ShortMissLatency = 1 + int(data[8])%16
		if err := cfg.Validate(); err != nil {
			t.Fatalf("decoded an invalid config: %v", err)
		}

		// Each instruction takes five bytes: class, destination and two
		// sources over all 64 registers, where a high bit means no
		// register, so every register sits next to the register tables'
		// sentinel slots; and its miss events.
		body := data[header:]
		n := min(256, len(body)/5)
		if n == 0 {
			return
		}
		reg := func(b byte) int16 {
			if b&0x80 != 0 {
				return isa.RegNone
			}
			return int16(b % isa.NumArchRegs)
		}
		tr := &trace.Trace{Name: "fuzz"}
		preps := make([]stats.Event, n)
		for i := 0; i < n; i++ {
			b := body[5*i : 5*i+5]
			in := trace.Instruction{
				PC: uint64(4 * i), Class: isa.Class(b[0] % byte(isa.NumClasses)),
				Dest: reg(b[1]), Src1: reg(b[2]), Src2: reg(b[3]),
			}
			tr.Instrs = append(tr.Instrs, in)
			ev := b[4]
			var dres cache.Result
			var tlbMiss bool
			if in.IsMem() {
				dres = cache.Result(ev >> 2 & 3 % 3)
				tlbMiss = cfg.TLB != nil && ev&0x40 != 0
			}
			preps[i] = stats.NewEvent(cache.Result(ev&3%3), dres, in.Class == isa.Branch && ev&0x10 != 0, tlbMiss)
		}
		checkAgainstReference(t, "fuzz", tr, cfg, preps)
	})
}
