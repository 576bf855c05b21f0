package metricstest

import (
	"fmt"
	"strings"
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

// histogram is a complete one-bucket histogram family named h.
const histogram = "# HELP h A histogram.\n# TYPE h histogram\n" +
	`h_bucket{le="0.5"} 1` + "\n" + `h_bucket{le="+Inf"} 2` + "\nh_sum 1.25\nh_count 2\n"

func TestCheck(t *testing.T) {
	good := "# HELP a_total A counter.\n# TYPE a_total counter\na_total 3\n" +
		"# HELP b A labeled gauge.\n# TYPE b gauge\n" +
		`b{path="/v1/predict",code="200"} 1.5e+03` + "\n" +
		"# HELP d A quoted label.\n# TYPE d gauge\n" +
		`d{q="a \"quoted\" \\ value"} NaN` + "\n" +
		"# HELP e An empty family.\n# TYPE e gauge\n" +
		histogram + "\n"
	r := &recorder{TB: t}
	if n := Check(r, good); n != 7 || len(r.errs) != 0 {
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

// TestCheckFamilies pins the family rules: declaration before samples,
// one declaration and one run of samples per family, and a histogram's
// three mandatory series.
func TestCheckFamilies(t *testing.T) {
	counter := func(name string) string {
		return "# HELP " + name + " A counter.\n# TYPE " + name + " counter\n" + name + " 1\n"
	}
	for _, c := range []struct {
		name, body, want string
	}{
		{"undeclared", "a_total 1\n", "before its # HELP and # TYPE"},
		{"help only", "# HELP a_total A counter.\na_total 1\n", "before its # HELP and # TYPE"},
		{"type only", "# TYPE a_total counter\na_total 1\n", "before its # HELP and # TYPE"},
		{"declared after samples", "a_total 1\n# HELP a_total A counter.\n# TYPE a_total counter\n", "before its # HELP"},
		{"declared twice", counter("a_total") + "# HELP a_total Again.\n", "second time"},
		{"type twice", "# HELP a_total A.\n# TYPE a_total counter\n# TYPE a_total counter\na_total 1\n", "second time"},
		{"split", counter("a_total") + counter("b_total") + "a_total 2\n", "splits a_total"},
		{"no +Inf", strings.Replace(histogram, `h_bucket{le="+Inf"} 2`+"\n", "", 1), `no h_bucket{le="+Inf"}`},
		{"no sum", strings.Replace(histogram, "h_sum 1.25\n", "", 1), "no h_sum"},
		{"no count", strings.Replace(histogram, "h_count 2\n", "", 1), "no h_count"},
	} {
		r := &recorder{TB: t}
		Check(r, c.body)
		if len(r.errs) == 0 || !strings.Contains(strings.Join(r.errs, "\n"), c.want) {
			t.Errorf("%s: errors %v, want one containing %q", c.name, r.errs, c.want)
		}
	}
}

func TestSkeleton(t *testing.T) {
	in := "# HELP a_total A counter.\n# TYPE a_total counter\n" +
		`a_total{path="/v1/predict",code="200"} 17` + "\nb 0.125\n"
	want := "# HELP a_total A counter.\n# TYPE a_total counter\n" +
		`a_total{path="/v1/predict",code="200"} _` + "\nb _\n"
	if got := Skeleton(in); got != want {
		t.Errorf("Skeleton =\n%s\nwant\n%s", got, want)
	}
}
