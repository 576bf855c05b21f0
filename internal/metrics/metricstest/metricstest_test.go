package metricstest

import (
	"fmt"
	"testing"
)

// recorder captures Errorf calls instead of failing the enclosing test.
type recorder struct {
	testing.TB
	errs []string
}

func (r *recorder) Helper() {}

func (r *recorder) Errorf(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

func TestCheck(t *testing.T) {
	good := "# HELP a_total A counter.\n# TYPE a_total counter\na_total 3\n" +
		`b{path="/v1/predict",code="200"} 1.5e+03` + "\n" +
		`c_bucket{le="+Inf"} 7` + "\n" + `d{q="a \"quoted\" \\ value"} NaN` + "\n\n"
	r := &recorder{TB: t}
	if n := Check(r, good); n != 4 || len(r.errs) != 0 {
		t.Fatalf("valid exposition: %d samples, errors %v", n, r.errs)
	}
	for _, bad := range []string{
		"fomodeld_prep_cache_evictions_total &{{{} {} 0}}",
		"a_total",
		"a_total 1 2",
		"a_total one",
		`a{path=/v1} 1`,
		`a{path="x"`,
		"9a 1",
	} {
		r := &recorder{TB: t}
		if n := Check(r, bad+"\n"); n != 0 || len(r.errs) != 1 {
			t.Errorf("%q: %d samples, errors %v; want it rejected", bad, n, r.errs)
		}
	}
}
