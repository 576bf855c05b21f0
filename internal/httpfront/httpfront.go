// Package httpfront is the HTTP front fomodeld and fomodelproxy both
// serve through: what every request passes on its way in and out,
// whichever server answers it.
//
//   - Front wraps each handler: it takes or mints the request's
//     X-Request-ID and echoes it, and once the handler returns it
//     records the request in the latency histogram and the per-(path,
//     code) counters and writes one structured access-log line.
//   - Writer is the status writer handlers write through; it records
//     the code and byte count for that log line and forwards Flush for
//     streamed NDJSON.
//   - ErrorBody, WriteError and StatusClientGone are the error contract:
//     one JSON shape for every non-200 answer from either server, and
//     499 in the log and counters when the client left first.
//   - ReadBody and DecodeStrict are the bounded request-body read (413
//     naming the limit) and the strict JSON decode both servers apply.
//   - Serve listens, serves and drains on shutdown.
//
// What stays in each server is its own: the daemon's admission control
// (429 with Retry-After), computation deadline and X-Cache log field;
// the proxy's request-ID minting and replica log field.
package httpfront

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"time"

	"fomodel/internal/metrics"
)

// StatusClientGone is the nginx-convention code logged and counted when
// the client disconnected before a response could be written.
const StatusClientGone = 499

// RequestIDHeader carries the request ID through the fleet.
const RequestIDHeader = "X-Request-ID"

// Writer records what a handler wrote, for the access log and the
// per-(path, code) counters.
type Writer struct {
	http.ResponseWriter
	// Code is the status written (0 until the handler writes; the log
	// reads it as 200), and Bytes the body bytes written.
	Code  int
	Bytes int
	// ID is the request's X-Request-ID, echoed in the response headers,
	// the access log and error bodies; empty when the request carried
	// none and the front mints none.
	ID string
	// Cache and Replica, when set by the handler, are logged as "cache"
	// (the daemon's response-cache state) and "replica" (the proxy's
	// upstream).
	Cache   string
	Replica string
}

func (w *Writer) WriteHeader(code int) {
	if w.Code == 0 {
		w.Code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *Writer) Write(p []byte) (int, error) {
	if w.Code == 0 {
		w.Code = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.Bytes += n
	return n, err
}

// Flush forwards to the underlying writer so streamed NDJSON rows reach
// the client as they are written rather than when the response ends.
func (w *Writer) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// HandlerFunc is a handler behind the front.
type HandlerFunc func(w *Writer, r *http.Request)

// Front is one server's instrumentation: its request latency histogram,
// its request counters and its access log.
type Front struct {
	Latency  *metrics.Histogram
	Requests metrics.RequestCounts
	log      *slog.Logger
	// mintID, when set, gives a request that carries no X-Request-ID
	// one, set on the request itself so it is forwarded upstream.
	mintID func() string
}

// New returns a front logging to log (nil discards) with a latency
// histogram over metrics.DefaultLatencyBounds. mintID, when non-nil,
// mints the ID of a request that arrives without one.
func New(log *slog.Logger, mintID func() string) *Front {
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return &Front{
		Latency: metrics.NewHistogram(metrics.DefaultLatencyBounds()...),
		log:     log,
		mintID:  mintID,
	}
}

// Handle registers h on mux under pattern ("METHOD /path"), wrapped by
// the front and counted and logged under the pattern's path.
func (f *Front) Handle(mux *http.ServeMux, pattern string, h HandlerFunc) {
	path := pattern[strings.IndexByte(pattern, ' ')+1:]
	mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.Header.Get(RequestIDHeader)
		if id == "" && f.mintID != nil {
			id = f.mintID()
			r.Header.Set(RequestIDHeader, id)
		}
		if id != "" {
			w.Header().Set(RequestIDHeader, id)
		}
		fw := &Writer{ResponseWriter: w, ID: id}
		h(fw, r)
		f.finish(path, fw, r, start)
	})
}

// finish records the request in the metrics and the access log.
func (f *Front) finish(path string, w *Writer, r *http.Request, start time.Time) {
	if w.Code == 0 {
		w.Code = http.StatusOK
	}
	elapsed := time.Since(start)
	f.Latency.Observe(elapsed.Seconds())
	f.Requests.Counter(path, w.Code).Inc()
	attrs := [7]slog.Attr{
		slog.String("path", path),
		slog.Int("status", w.Code),
		slog.Int64("dur_ms", elapsed.Milliseconds()),
		slog.Int("bytes", w.Bytes),
	}
	n := 4
	for _, a := range [...]struct{ key, value string }{
		{"cache", w.Cache}, {"request_id", w.ID}, {"replica", w.Replica},
	} {
		if a.value != "" {
			attrs[n] = slog.String(a.key, a.value)
			n++
		}
	}
	f.log.LogAttrs(r.Context(), slog.LevelInfo, "request", attrs[:n]...)
}

// ErrorBody is the structured body of every non-200 response either
// server writes itself, and of the final row of a stream that fails
// after its 200. RequestID is present only when the request carried (or
// was given) an X-Request-ID.
type ErrorBody struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

// WriteError answers with code and an ErrorBody carrying the request's
// ID.
func WriteError(w *Writer, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(ErrorRow(ErrorBody{Error: fmt.Sprintf(format, args...), RequestID: w.ID})) //folint:allow(errdrop) error-response write: the client may already be gone, and there is no fallback channel
}

// ErrorRow encodes e as one line of JSON.
func ErrorRow(e ErrorBody) []byte {
	//folint:allow(errdrop) ErrorBody is two plain strings; Marshal cannot fail on it
	b, _ := json.Marshal(e)
	return append(b, '\n')
}

// ReadBody reads the request body up to limit bytes, answering 413
// (naming the limit) or 400 itself when it cannot. Reading the whole
// bounded body first makes an oversized body a 413 even when its prefix
// would parse.
func ReadBody(w *Writer, r *http.Request, limit int64) ([]byte, bool) {
	raw, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, limit))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			WriteError(w, http.StatusRequestEntityTooLarge, "request body exceeds the %d-byte limit", limit)
		} else {
			WriteError(w, http.StatusBadRequest, "invalid request body: %v", err)
		}
		return nil, false
	}
	return raw, true
}

// DecodeStrict parses b as one JSON value into v: unknown fields and
// trailing data are errors.
func DecodeStrict(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after the JSON object")
	}
	return nil
}

// Serve listens on addr and serves h until ctx is done, then shuts down
// gracefully, draining in-flight requests for up to drain. It logs
// "<name> listening" with the bound address and attrs once the listener
// is up, and the start of the drain; a drain that does not finish in
// time is an error.
func Serve(ctx context.Context, name, addr string, h http.Handler, drain time.Duration, log *slog.Logger, attrs ...any) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	log.Info(name+" listening", append([]any{"addr", ln.Addr().String()}, attrs...)...)

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}

	log.Info("shutting down, draining in-flight requests", "timeout", drain.String())
	//folint:allow(ctxflow) the parent ctx is already cancelled here; the drain deadline needs a fresh context
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("%s: drain incomplete: %w", name, err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
