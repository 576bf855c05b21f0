package server

import (
	"strings"
	"testing"

	"fomodel/internal/experiments"
	"fomodel/internal/isa"
	"fomodel/internal/iw"
)

func TestParseFUCounts(t *testing.T) {
	var mulLoad [isa.NumClasses]int
	mulLoad[isa.Mul], mulLoad[isa.Load] = 1, 2
	cases := []struct {
		name, in string
		want     [isa.NumClasses]int
		wantErr  string
	}{
		{name: "empty", in: ""},
		{name: "valid", in: "mul=1,load=2", want: mulLoad},
		{name: "whitespace", in: " mul=1 ,  load=2", want: mulLoad},
		{name: "malformed", in: "mul", wantErr: "malformed FU limit"},
		{name: "empty pair", in: "mul=1,", wantErr: "malformed FU limit"},
		{name: "not a number", in: "mul=x", wantErr: "bad FU count"},
		{name: "zero count", in: "mul=0", wantErr: "bad FU count"},
		{name: "unknown class", in: "bogus=1", wantErr: `unknown instruction class "bogus"`},
		{name: "duplicate class", in: "mul=1,load=2,mul=2", wantErr: "FU limit for mul given twice"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ParseFUCounts(tc.in)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("ParseFUCounts(%q) error = %v, want one containing %q", tc.in, err, tc.wantErr)
				}
				return
			}
			if err != nil || got != tc.want {
				t.Fatalf("ParseFUCounts(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
			}
		})
	}
}

// TestPredictAnalysisKeys pins the analysis key a predict's machine maps
// to, so a change to the machine-to-analysis projection cannot silently
// re-key stored artifacts. Only the ROB and the TLB reach the key; the
// width, window, clusters and FU limits are timing-only.
func TestPredictAnalysisKeys(t *testing.T) {
	const base = "a2|gzip|n=8000|s=1|w=[2 4 8 16 32 64]|h={L1I:{SizeBytes:4096 Assoc:4 LineBytes:128} " +
		"L1D:{SizeBytes:4096 Assoc:4 LineBytes:128} L2:{SizeBytes:524288 Assoc:4 LineBytes:128} " +
		"ShortMissLatency:8 LongMissLatency:200}|pb=13|lat=[1 3 12 4 1 1 1]"
	cases := []struct {
		spec MachineSpec
		want string
	}{
		{MachineSpec{}, base + "|rob=128|warm=true"},
		{MachineSpec{ROB: 256}, base + "|rob=256|warm=true"},
		{MachineSpec{TLB: true}, base + "|rob=128|warm=true|tlb={Entries:64 PageBytes:4096 MissLatency:80}"},
		{MachineSpec{Width: 8, Window: 96, Clusters: 2, FU: "mul=1"}, base + "|rob=128|warm=true"},
	}
	for _, tc := range cases {
		ucfg, err := tc.spec.SimConfig()
		if err != nil {
			t.Fatal(err)
		}
		if got := experiments.AnalysisKey("gzip|n=8000|s=1", iw.DefaultWindows(), ucfg.Analysis()); got != tc.want {
			t.Errorf("%+v: analysis key\n got %s\nwant %s", tc.spec, got, tc.want)
		}
	}
}
