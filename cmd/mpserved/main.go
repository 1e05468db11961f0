// Command mpserved serves motion-planning queries over HTTP: a
// multi-tenant pool of parmp engines behind POST /v1/query and
// POST /v1/batch, with background roadmap growth, a per-tenant path
// cache, and queries answered on the goroutine they arrive on behind a
// bounded per-tenant admission gate.
//
// Usage:
//
//	mpserved -addr :8931 -rounds 3 -queue 256
//
// Drive it with cmd/mploadgen; GET /v1/stats reports per-tenant
// counters and GET /healthz liveness.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"parmp/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8931", "listen address")
	maxTenants := flag.Int("max-tenants", 8, "engine pool capacity; least-recently-used tenants are evicted beyond it")
	rounds := flag.Int("rounds", 3, "default background growth rounds for tenants whose spec does not set rounds")
	growInterval := flag.Duration("grow-interval", 0, "pause between background growth rounds (0 = back-to-back)")
	queue := flag.Int("queue", 256, "queries a tenant admits and has not yet answered; one more answers 429")
	cache := flag.Int("cache", 4096, "path cache entries per tenant (0 = disable)")
	timeout := flag.Duration("timeout", 10*time.Second, "budget of one mutate request's repair")
	k := flag.Int("k", 8, "default attachment count for queries that omit k")
	flag.Parse()

	cfg := serve.Config{
		MaxTenants:     *maxTenants,
		QueueDepth:     *queue,
		CacheSize:      *cache,
		GrowRounds:     *rounds,
		GrowInterval:   *growInterval,
		RequestTimeout: *timeout,
		DefaultK:       *k,
	}
	// The flag uses 0 for "off" (natural on a command line); the config
	// uses negative for "off" so that its zero value means "default".
	if *cache == 0 {
		cfg.CacheSize = -1
	}

	srv := serve.New(cfg)
	// An idle connection that never sends its request line is dropped
	// rather than held forever.
	hs := &http.Server{Addr: *addr, Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-ctx.Done()
		fmt.Fprintln(os.Stderr, "mpserved: shutting down")
		shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(shCtx); err != nil {
			fmt.Fprintln(os.Stderr, "mpserved: shutdown:", err)
		}
	}()

	fmt.Fprintf(os.Stderr, "mpserved: listening on %s (rounds=%d queue=%d cache=%d)\n",
		*addr, *rounds, *queue, *cache)
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "mpserved:", err)
		os.Exit(1)
	}
	<-done
	srv.Close()
}
