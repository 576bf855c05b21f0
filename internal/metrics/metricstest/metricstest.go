// Package metricstest checks Prometheus text expositions in tests, so a
// formatting slip in a /metrics handler fails the build instead of
// reaching a scraper.
package metricstest

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// sampleLine matches `name[{label="value",...}] value`, with label values
// in double quotes and backslash escapes.
var sampleLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*` +
		`(?:\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})?` +
		` (\S+)$`)

// Check reports through tb every line of body that is neither blank, a
// comment, nor a sample whose value parses as a float, and returns the
// number of samples.
func Check(tb testing.TB, body string) int {
	tb.Helper()
	samples := 0
	for i, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		m := sampleLine.FindStringSubmatch(line)
		if m == nil {
			tb.Errorf("line %d is not `name[{labels}] value`: %q", i+1, line)
			continue
		}
		if _, err := strconv.ParseFloat(m[1], 64); err != nil {
			tb.Errorf("line %d has a non-numeric value: %q", i+1, line)
			continue
		}
		samples++
	}
	return samples
}
