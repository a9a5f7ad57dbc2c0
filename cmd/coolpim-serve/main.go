// Command coolpim-serve exposes the simulator as an HTTP/JSON service:
// POST a campaign spec, get the memoized result.
//
//	POST /v1/runs            submit a campaign (JSON CampaignSpec body).
//	                         Sync by default: the response is the result
//	                         document, with X-Cache: hit|miss. ?async=1
//	                         returns 202 + the run id immediately.
//	GET  /v1/runs/{id}       status document; ?watch=1 streams progress
//	                         events as JSONL until the run finishes.
//	GET  /metrics            Prometheus metrics (cache hits/misses,
//	                         executions, admission queue depth, ...).
//	GET  /healthz            liveness probe.
//
// The run ledger (-ledger) is the one store: every matrix cell, reused
// by any later campaign under the same profile hash, and one record per
// finished campaign, keyed by the spec's cache key (execution knobs
// like -parallel excluded). Re-POSTing a campaign returns byte-identical
// results without simulating, across restarts too. Identical concurrent
// submissions share one execution. -max-inflight bounds concurrent
// simulations; overflow queues per tenant (X-Tenant header) and drains
// round-robin, and past -max-queue the server answers 429 with a
// Retry-After estimate.
//
// Example:
//
//	coolpim-serve -addr 127.0.0.1:8780 -ledger serve.jsonl
//	curl -s -X POST 127.0.0.1:8780/v1/runs \
//	    -d '{"profile":"quick","workloads":["dc"],"policies":["baseline","coolpim-hw"]}'
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

	"coolpim/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8780", "HTTP listen address (use :0 for an ephemeral port)")
	ledgerPath := flag.String("ledger", "serve-ledger.jsonl", "JSONL run ledger, the server's one store; completed cells and campaigns are reused across campaigns and restarts")
	maxInflight := flag.Int("max-inflight", 2, "maximum concurrently executing campaigns")
	maxQueue := flag.Int("max-queue", 16, "maximum queued campaigns before rejecting with 429")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "unexpected arguments: %v\n", flag.Args())
		os.Exit(2)
	}

	srv, err := serve.New(serve.Config{
		LedgerPath:  *ledgerPath,
		MaxInflight: *maxInflight,
		MaxQueue:    *maxQueue,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer srv.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// The address line goes to stdout deliberately: scripts (and the
	// serve-smoke harness) parse it to find an ephemeral port.
	fmt.Printf("coolpim-serve: listening on http://%s\n", ln.Addr())

	hs := &http.Server{Handler: srv.Handler()}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-stop
		// In-flight sync responses get a grace period; the ledger is
		// already durable at this point.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
	}()
	if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
