package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The host a shared benchmark runs on changes speed by up to 2× over
// minutes as its neighbours come and go, which would swamp any change to
// the program. Each run therefore measures the host with a fixed
// reference kernel between the slices of its timed phase, and scales the
// slice's times to a nominal host on which the kernel takes its nominal
// time. A kernel is this file's own code and never changes with the
// program, so a slower program still reads slower; a slower host does not.
//
// Hosts slow different kinds of work differently, so each workload is
// scaled by the kernel with its own resource mix: loopback HTTP round
// trips for the request-path workloads, hashing and map churn for the
// compute-bound ones. Across runs minutes apart, the matching kernel
// removes the most host drift (see bench/README.md).

// kernel is a fixed unit of reference work.
type kernel struct {
	run func() time.Duration
	// nominal is run's wall time on an uncontended host of the kind the
	// benchmark was sized on (2-vCPU, 2 GHz Xeon).
	nominal time.Duration
	close   func()
}

// slowness is the host's slowness factor now: the median of five kernel
// runs over the nominal time (1 = nominal, 2 = half speed).
func (k *kernel) slowness() float64 {
	ks := make([]float64, 5)
	for i := range ks {
		ks[i] = float64(k.run())
	}
	sort.Float64s(ks)
	return ks[2] / float64(k.nominal)
}

// computeUnits is the compute kernel's work, split into units the CPUs
// take from a shared counter, as the servers' worker pools share work.
const computeUnits = 64

var computeSink atomic.Uint64

// computeKernel hashes and churns maps on every CPU.
func computeKernel() (*kernel, error) {
	return &kernel{run: runCompute, nominal: 15 * time.Millisecond, close: func() {}}, nil
}

func runCompute() time.Duration {
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 16<<10)
			var acc uint64
			for u := next.Add(1); u <= computeUnits; u = next.Add(1) {
				acc += computeUnit(buf, int(u))
			}
			computeSink.Add(acc)
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// computeUnit hashes a 16 KiB buffer and churns a map, exercising the
// ALU, the caches and the allocator.
func computeUnit(buf []byte, seed int) uint64 {
	m := make(map[int]int, 256)
	var acc uint64
	for r := 0; r < 8; r++ {
		binary.LittleEndian.PutUint64(buf, uint64(seed*8+r))
		sum := sha256.Sum256(buf)
		acc += binary.LittleEndian.Uint64(sum[:])
		for j := 0; j < 512; j++ {
			m[j*131+r] += j
		}
	}
	return acc + uint64(len(m))
}

// httpRoundTrips is the HTTP kernel's work per client.
const httpRoundTrips = 100

// httpKernel runs closed-loop JSON round trips against an in-process
// loopback server, one client per load client, each on its own
// keep-alive connection.
func httpKernel() (*kernel, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: http.HandlerFunc(echoJSON)}
	served := make(chan struct{})
	go func() {
		_ = srv.Serve(ln) // returns http.ErrServerClosed once close runs
		close(served)
	}()
	url := "http://" + ln.Addr().String()
	clients := newClients()
	body := []byte(`{"bench":"gzip","machine":{"rob":160}}`)
	run := func() time.Duration {
		var wg sync.WaitGroup
		start := time.Now()
		for _, hc := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < httpRoundTrips; i++ {
					resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
					if err != nil {
						continue // a refused round trip only shortens the kernel; the server is local
					}
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}()
		}
		wg.Wait()
		return time.Since(start)
	}
	return &kernel{run: run, nominal: 6 * time.Millisecond, close: func() {
		closeClients(clients)
		_ = srv.Close() // the only error is the listener's, already closing
		<-served
	}}, nil
}

// echoJSON decodes a JSON object and answers with it plus padding, about
// the size of a predict response.
func echoJSON(w http.ResponseWriter, r *http.Request) {
	var v map[string]any
	if err := json.NewDecoder(r.Body).Decode(&v); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	out, err := json.Marshal(map[string]any{"echo": v, "pad": bytes.Repeat([]byte("x"), 512)})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(out) // the client is this process; nothing to do if it left
}
