// Package serve is the planning-as-a-service tier: an HTTP/JSON front
// end over parmp.Engine that turns the repository's resumable planners
// into a multi-tenant server.
//
// The pieces, bottom-up:
//
//   - Spec canonicalizes an environment/robot/planner/options request
//     into a tenant key, so every way of writing the same planning
//     problem lands on the same engine.
//   - A /v1/query body in the shape json.Marshal writes is scanned
//     without reflection, and its raw spec bytes, once encoding/json,
//     Canonical and the pool's tenant lookup have succeeded on them, are
//     memoized per server with their canonical spec and key; every other
//     body, and every error, goes through encoding/json as before.
//   - Pool maps tenant keys to lazily constructed engines. Each tenant
//     grows its roadmap in a background goroutine toward a target round
//     count; every committed round atomically publishes a fresh
//     snapshot (graceful rollover — in-flight queries keep their old
//     snapshot) and invalidates the tenant's path cache. Tenants are
//     evicted least-recently-used beyond the pool cap.
//   - A query is answered where it arrives: the handler probes the
//     path cache, takes one slot of the tenant's admission gate, and runs
//     Snapshot.Query — an aimed A* with two allocations — on its own
//     goroutine. There is no queue, no worker and no hand-off between
//     the socket and the search. POST /v1/batch saves a client round
//     trips, nothing else: it takes one slot of the same gate, and a
//     batch is its queries, answered in order on the handler goroutine,
//     each through the same cache probe and search.
//   - pathCache is a per-tenant LRU over (start, goal, k) keyed by
//     exact float bits, tagged with the snapshot generation it answers
//     for, dropped wholesale on rollover, and holding each path as JSON
//     bytes, encoded once: every query reply is appended around them.
//   - Backpressure: the gate holds QueueDepth slots; when none is free
//     the server answers 429 with Retry-After instead of piling
//     searches onto a saturated tenant.
//
// cmd/mpserved wraps this package in a binary; cmd/mploadgen drives it
// with millions of queries and feeds the percentiles into the
// servebench regression gate.
package serve

import "time"

// Config tunes the server. The zero value is not usable; call
// (*Config).withDefaults or use New, which applies defaults.
type Config struct {
	// MaxTenants caps the number of live engines; beyond it the
	// least-recently-used tenant is evicted. Default 8.
	MaxTenants int
	// QueueDepth bounds the queries (and client batches) each tenant
	// has admitted and not yet answered; one more answers 429.
	// Default 256.
	QueueDepth int
	// CacheSize is the per-tenant path-cache capacity in entries.
	// Negative disables caching. Default 4096.
	CacheSize int
	// GrowRounds is the default background growth target for tenants
	// whose spec does not set Rounds. Default 3.
	GrowRounds int
	// GrowInterval pauses between background growth rounds, leaving
	// CPU for serving. Default 0 (grow back-to-back).
	GrowInterval time.Duration
	// RequestTimeout bounds a mutate request's repair; past it the
	// world is left unchanged. Queries never wait, so they carry no
	// deadline. Default 10s.
	RequestTimeout time.Duration
	// DefaultK is the attachment count used when a query omits k.
	// Default 8.
	DefaultK int
}

// withDefaults fills unset fields with the documented defaults.
func (c Config) withDefaults() Config {
	if c.MaxTenants <= 0 {
		c.MaxTenants = 8
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.CacheSize < 0 {
		c.CacheSize = 0
	} else if c.CacheSize == 0 {
		c.CacheSize = 4096
	}
	if c.GrowRounds <= 0 {
		c.GrowRounds = 3
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.DefaultK <= 0 {
		c.DefaultK = 8
	}
	return c
}
