package server

import (
	"errors"
	"net/http"

	"fomodel/internal/httpfront"
	"fomodel/internal/metrics"
	"fomodel/internal/registry"
	"fomodel/internal/workload"
)

// This file is the daemon's named-workload surface:
//
//	POST   /v1/workloads/{name}  register (or replace) a custom profile
//	GET    /v1/workloads/{name}  read a registration back
//	DELETE /v1/workloads/{name}  remove a registration
//
// The tenant is taken from the X-Tenant header ("default" when absent).
// Registered names are then accepted anywhere a built-in benchmark name
// is: /v1/predict, /v1/batch, /v1/sweep, /v1/optimize, and the
// fomodelproxy router, which replicates registrations to every replica.

// tenantHeader carries the caller's tenant id; the fomodelproxy router
// forwards it when fanning registrations out to replicas.
const tenantHeader = "X-Tenant"

// defaultTenant is the tenant of requests that carry no X-Tenant
// header — single-user deployments never need to think about tenancy.
const defaultTenant = "default"

// tenantOf extracts and validates the request's tenant.
func tenantOf(r *http.Request) (string, error) {
	t := r.Header.Get(tenantHeader)
	if t == "" {
		return defaultTenant, nil
	}
	if !registry.ValidName(t) {
		return "", errors.New("invalid X-Tenant header (need 1-64 chars of [a-zA-Z0-9._-])")
	}
	return t, nil
}

// WorkloadRegistration is the POST/GET /v1/workloads/{name} body: the
// registration's identity plus the stored profile, so a GET round-trips
// what a POST accepted.
type WorkloadRegistration struct {
	Name        string           `json:"name"`
	Tenant      string           `json:"tenant"`
	ContentHash string           `json:"content_hash"`
	Bytes       int64            `json:"bytes"`
	Profile     workload.Profile `json:"profile"`
}

// WorkloadDeletion is the DELETE /v1/workloads/{name} body.
type WorkloadDeletion struct {
	Name    string `json:"name"`
	Deleted bool   `json:"deleted"`
}

// registrationBody projects a registry entry onto the wire shape.
func registrationBody(e registry.Entry) WorkloadRegistration {
	return WorkloadRegistration{
		Name:        e.Name,
		Tenant:      e.Tenant,
		ContentHash: e.Hash,
		Bytes:       e.Bytes,
		Profile:     e.Profile,
	}
}

// registryStatus maps a registry error onto its HTTP status.
func registryStatus(err error) int {
	switch {
	case errors.Is(err, registry.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, registry.ErrOwned):
		return http.StatusConflict
	case errors.Is(err, registry.ErrQuota):
		return http.StatusForbidden
	default:
		return http.StatusBadRequest
	}
}

func (s *Server) handleWorkloadRegister(w *httpfront.Writer, r *http.Request) {
	tenant, err := tenantOf(r)
	if err != nil {
		httpfront.WriteError(w, http.StatusBadRequest, "%s", err)
		return
	}
	name := r.PathValue("name")
	var prof workload.Profile
	if !decodeRequest(w, r, MaxBodyBytes, &prof) {
		return
	}
	e, err := s.cfg.Registry.Register(tenant, name, prof)
	if err != nil {
		httpfront.WriteError(w, registryStatus(err), "%s", err)
		return
	}
	body, err := EncodeIndented(registrationBody(e))
	s.finishComputeState(w, body, "", err)
}

func (s *Server) handleWorkloadGet(w *httpfront.Writer, r *http.Request) {
	name := r.PathValue("name")
	e, ok := s.cfg.Registry.Get(name)
	if !ok {
		httpfront.WriteError(w, http.StatusNotFound, "no workload registered under %q", name)
		return
	}
	body, err := EncodeIndented(registrationBody(e))
	s.finishComputeState(w, body, "", err)
}

func (s *Server) handleWorkloadDelete(w *httpfront.Writer, r *http.Request) {
	tenant, err := tenantOf(r)
	if err != nil {
		httpfront.WriteError(w, http.StatusBadRequest, "%s", err)
		return
	}
	name := r.PathValue("name")
	if err := s.cfg.Registry.Delete(tenant, name); err != nil {
		httpfront.WriteError(w, registryStatus(err), "%s", err)
		return
	}
	body, err := EncodeIndented(WorkloadDeletion{Name: name, Deleted: true})
	s.finishComputeState(w, body, "", err)
}

// noteRegisteredUse records one answered predict of a registered
// workload for the per-workload /metrics accounting; req is normalized,
// so its Content is set exactly when its name resolved to a
// registration. Built-in names are not tracked, so the counter maps
// stay bounded by the registered population.
func (s *Server) noteRegisteredUse(req PredictRequest, hit bool) {
	if req.Content == "" {
		return
	}
	s.registeredUseCounter(s.regRequests, req.Bench).Inc()
	if hit {
		s.registeredUseCounter(s.regHits, req.Bench).Inc()
	}
}

// registeredUseCounter returns the live counter for one registered
// workload in the given map, creating it on first use.
func (s *Server) registeredUseCounter(m map[string]*metrics.Counter, name string) *metrics.Counter {
	s.regUseMu.Lock()
	defer s.regUseMu.Unlock()
	c := m[name]
	if c == nil {
		c = &metrics.Counter{}
		m[name] = c
	}
	return c
}
