package router

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"fomodel/internal/server"
	"fomodel/internal/workload"
)

// profileBody renders a registerable profile derived from a built-in,
// renamed to name.
func profileBody(t *testing.T, builtin, name string) string {
	t.Helper()
	p, err := workload.ByName(builtin)
	if err != nil {
		t.Fatal(err)
	}
	p.Name = name
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func del(t *testing.T, base, path string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, base+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestWorkloadReplicationFanout pins the replicated-write contract: one
// POST through the proxy registers the workload on EVERY replica, the
// mirror resolves the name, and a predict by that name through the
// proxy is byte-equal to the daemons' own.
func TestWorkloadReplicationFanout(t *testing.T) {
	_, tsA := newDaemon(t)
	_, tsB := newDaemon(t)
	rt, proxy := newProxy(t, Config{Replicas: []string{tsA.URL, tsB.URL}})

	resp := post(t, proxy.URL, "/v1/workloads/wl", profileBody(t, "gzip", "wl"), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register via proxy: %d\n%s", resp.StatusCode, readAll(t, resp))
	}
	var reg server.WorkloadRegistration
	if err := json.Unmarshal(readAll(t, resp), &reg); err != nil {
		t.Fatal(err)
	}
	if hash, ok := rt.mirror.WorkloadContent("wl"); !ok || hash != reg.ContentHash {
		t.Errorf("mirror = (%q, %v), want the registered hash %q", hash, ok, reg.ContentHash)
	}

	// Every replica holds the registration, not just the routed one.
	for _, base := range []string{tsA.URL, tsB.URL} {
		r := get(t, base, "/v1/workloads/wl")
		if r.StatusCode != http.StatusOK {
			t.Fatalf("replica %s missing the registration: %d", base, r.StatusCode)
		}
		var got server.WorkloadRegistration
		if err := json.Unmarshal(readAll(t, r), &got); err != nil {
			t.Fatal(err)
		}
		if got.ContentHash != reg.ContentHash {
			t.Errorf("replica %s hash %q, want %q", base, got.ContentHash, reg.ContentHash)
		}
	}

	// Predict by the registered name: proxy bytes == daemon bytes.
	viaProxy := post(t, proxy.URL, "/v1/predict", `{"bench":"wl"}`, nil)
	if viaProxy.StatusCode != http.StatusOK {
		t.Fatalf("predict via proxy: %d\n%s", viaProxy.StatusCode, readAll(t, viaProxy))
	}
	proxyBytes := readAll(t, viaProxy)
	direct := post(t, tsA.URL, "/v1/predict", `{"bench":"wl"}`, nil)
	if directBytes := readAll(t, direct); string(proxyBytes) != string(directBytes) {
		t.Error("proxied registered-name predict differs from the daemon's own bytes")
	}

	// The mirror size is visible on the proxy's metrics surface.
	if m := string(readAll(t, get(t, proxy.URL, "/metrics"))); !strings.Contains(m, "fomodelproxy_workload_mirror_size 1") {
		t.Error("metrics missing fomodelproxy_workload_mirror_size 1 after register")
	}

	// GET by name routes through the proxy too.
	if r := get(t, proxy.URL, "/v1/workloads/wl"); r.StatusCode != http.StatusOK {
		t.Errorf("get via proxy: %d", r.StatusCode)
	} else {
		readAll(t, r)
	}

	// DELETE fans out and clears the mirror.
	if r := del(t, proxy.URL, "/v1/workloads/wl"); r.StatusCode != http.StatusOK {
		t.Fatalf("delete via proxy: %d", r.StatusCode)
	} else {
		readAll(t, r)
	}
	if _, ok := rt.mirror.WorkloadContent("wl"); ok {
		t.Error("mirror entry survived deletion")
	}
	for _, base := range []string{tsA.URL, tsB.URL} {
		if r := get(t, base, "/v1/workloads/wl"); r.StatusCode != http.StatusNotFound {
			t.Errorf("replica %s still serves the deleted name: %d", base, r.StatusCode)
		} else {
			readAll(t, r)
		}
	}
	if r := get(t, proxy.URL, "/v1/workloads/wl"); r.StatusCode != http.StatusNotFound {
		t.Errorf("get via proxy after delete: %d, want 404", r.StatusCode)
	} else {
		readAll(t, r)
	}
}

// TestWorkloadRegisterRefusalWins pins the all-or-nothing answer rule: a
// replica refusing the registration speaks for the fleet, and the
// mirror is not updated.
func TestWorkloadRegisterRefusalWins(t *testing.T) {
	refusing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusForbidden)
		w.Write([]byte(`{"error":"registry: tenant quota exceeded"}`))
	}))
	t.Cleanup(refusing.Close)
	_, accepting := newDaemon(t)
	rt, proxy := newProxy(t, Config{Replicas: []string{refusing.URL, accepting.URL}})

	resp := post(t, proxy.URL, "/v1/workloads/wl", profileBody(t, "gzip", "wl"), nil)
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("status %d, want the refusing replica's 403\n%s", resp.StatusCode, body)
	}
	if _, ok := rt.mirror.WorkloadContent("wl"); ok {
		t.Error("mirror updated despite a replica refusing")
	}
}

// TestWorkloadRegisterShedRelaysRetryAfter: a replica shedding the
// registration speaks for the fleet with its Retry-After intact, since
// the proxy does not retry on the client's behalf.
func TestWorkloadRegisterShedRelaysRetryAfter(t *testing.T) {
	shedding := httptest.NewServer(shed("7", "server saturated"))
	t.Cleanup(shedding.Close)
	_, accepting := newDaemon(t)
	_, proxy := newProxy(t, Config{Replicas: []string{accepting.URL, shedding.URL}})

	resp := post(t, proxy.URL, "/v1/workloads/wl", profileBody(t, "gzip", "wl"), nil)
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want the shedding replica's 429\n%s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "7" {
		t.Fatalf("Retry-After = %q, want 7", ra)
	}
}

// TestWorkloadRegisterTransportErrorIs502 pins the partial-write answer:
// a replica that cannot be reached at all turns the write into a 502 so
// the client knows the fleet state is not uniform.
func TestWorkloadRegisterTransportErrorIs502(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close() // refuse all connections
	_, alive := newDaemon(t)
	rt, proxy := newProxy(t, Config{Replicas: []string{alive.URL, dead.URL}})

	resp := post(t, proxy.URL, "/v1/workloads/wl", profileBody(t, "gzip", "wl"), nil)
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d, want 502\n%s", resp.StatusCode, body)
	}
	if _, ok := rt.mirror.WorkloadContent("wl"); ok {
		t.Error("mirror updated despite a partial write")
	}
}

// TestReregisterThroughProxyNeverServesStaleBytes is the proxy half of
// the stale-bytes property: register, predict, delete, re-register the
// same name with different content — all through the proxy, across two
// replicas — and the new prediction must reflect the new content.
func TestReregisterThroughProxyNeverServesStaleBytes(t *testing.T) {
	_, tsA := newDaemon(t)
	_, tsB := newDaemon(t)
	_, proxy := newProxy(t, Config{Replicas: []string{tsA.URL, tsB.URL}})

	if r := post(t, proxy.URL, "/v1/workloads/wl", profileBody(t, "gzip", "wl"), nil); r.StatusCode != http.StatusOK {
		t.Fatalf("register: %d\n%s", r.StatusCode, readAll(t, r))
	} else {
		readAll(t, r)
	}
	first := post(t, proxy.URL, "/v1/predict", `{"bench":"wl"}`, nil)
	if first.StatusCode != http.StatusOK {
		t.Fatalf("first predict: %d", first.StatusCode)
	}
	firstBytes := readAll(t, first)

	if r := del(t, proxy.URL, "/v1/workloads/wl"); r.StatusCode != http.StatusOK {
		t.Fatalf("delete: %d", r.StatusCode)
	} else {
		readAll(t, r)
	}
	if r := post(t, proxy.URL, "/v1/workloads/wl", profileBody(t, "mcf", "wl"), nil); r.StatusCode != http.StatusOK {
		t.Fatalf("re-register: %d\n%s", r.StatusCode, readAll(t, r))
	} else {
		readAll(t, r)
	}

	second := post(t, proxy.URL, "/v1/predict", `{"bench":"wl"}`, nil)
	if second.StatusCode != http.StatusOK {
		t.Fatalf("second predict: %d\n%s", second.StatusCode, readAll(t, second))
	}
	secondBytes := readAll(t, second)
	if string(secondBytes) == string(firstBytes) {
		t.Fatal("re-registered workload served the previous profile's bytes through the proxy")
	}
	// And every replica agrees with the proxy's answer.
	for _, base := range []string{tsA.URL, tsB.URL} {
		r := post(t, base, "/v1/predict", `{"bench":"wl"}`, nil)
		if got := readAll(t, r); string(got) != string(secondBytes) {
			t.Errorf("replica %s disagrees with the proxied post-re-register bytes", base)
		}
	}
}
