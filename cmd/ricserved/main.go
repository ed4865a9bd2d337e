// Command ricserved runs the distributed record service: the HTTP server
// a fleet of ricjs engines uses to share extracted `.ric` records through
// three operations: fetch, publish and invalidate.
//
// Usage:
//
//	ricserved                 # serve on 127.0.0.1:9464
//	ricserved -addr :9464     # serve on all interfaces
//
// The store is in-memory: ricserved is a shared cache tier, not a system
// of record — every client keeps its local RecordStore and can always
// regenerate records by extraction, so restarting ricserved costs the
// fleet one warm-up, never correctness. Endpoints are documented on
// recordserv.Server.ServeHTTP; /v1/health and /v1/stats serve probes.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ricjs/internal/recordserv"
)

func main() {
	var (
		addr = flag.String("addr", "127.0.0.1:9464", "listen address")
	)
	flag.Parse()

	srv := recordserv.NewServer()
	hs := &http.Server{
		Handler: srv,
		// Slow-client protection: a peer that stalls mid-request cannot
		// pin a connection forever.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ricserved:", err)
		os.Exit(1)
	}
	fmt.Printf("ricserved: serving records on %s\n", ln.Addr())

	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Printf("ricserved: %v, draining\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "ricserved: shutdown:", err)
			os.Exit(1)
		}
	case err := <-done:
		if err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "ricserved:", err)
			os.Exit(1)
		}
	}
	st := srv.Stats()
	fmt.Printf("ricserved: served %d fetches (%d hits), %d publishes, %d invalidates\n",
		st.Fetches, st.FetchHits, st.Publishes, st.Invalidates)
}
