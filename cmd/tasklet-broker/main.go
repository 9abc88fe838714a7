// Command tasklet-broker runs the Tasklet broker: the mediator that
// registers providers, accepts jobs from consumers, schedules tasklets and
// routes results.
//
// Usage:
//
//	tasklet-broker -addr :7420 -policy work_steal
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/broker"
	"repro/internal/scheduler"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7420", "listen address")
	policy := flag.String("policy", "work_steal",
		"scheduling policy: "+strings.Join(scheduler.Names(), ", "))
	seed := flag.Uint64("seed", 1, "seed for stochastic policies")
	heartbeat := flag.Duration("heartbeat", 5*time.Second, "provider heartbeat timeout")
	memoEntries := flag.Int("memo", 0, "result-memo entry budget (0 = default, negative = disable memoization)")
	memoTTL := flag.Duration("memo-ttl", 0, "result-memo entry TTL (0 = default)")
	maxAttempts := flag.Int("max-attempts", 0,
		"cap total attempts per tasklet across lost-attempt re-issues (0 = unlimited); exhaustion fails the tasklet as lost")
	retryBackoff := flag.Duration("retry-backoff", 0,
		"base delay before re-issuing a lost attempt, doubling per re-issue (0 = immediate)")
	stats := flag.Duration("stats", 0, "print a status line at this interval (0 = off)")
	quiet := flag.Bool("q", false, "suppress operational logs")
	flag.Parse()

	logger := log.New(os.Stderr, "", log.LstdFlags)
	if *quiet {
		logger = nil
	}

	pol, err := scheduler.New(*policy, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	b := broker.New(broker.Options{
		Policy:           pol,
		HeartbeatTimeout: *heartbeat,
		Logger:           logger,
		MemoEntries:      *memoEntries,
		MemoTTL:          *memoTTL,
		MaxAttempts:      *maxAttempts,
		RetryBackoff:     *retryBackoff,
	})
	bound, err := b.Listen(*addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("tasklet-broker listening on %s (policy %s)\n", bound, *policy)

	if *stats > 0 {
		go func() {
			tick := time.NewTicker(*stats)
			defer tick.Stop()
			for range tick.C {
				s := b.Snapshot()
				m := b.Metrics()
				fmt.Printf("status: %d providers, %d jobs, %d pending, %d in flight; memo %d hits / %d misses / %d stores / %d evictions / %d coalesced\n",
					len(s.Providers), s.Jobs, s.Pending, s.InFlight,
					m.Counter("memo.hits").Value(), m.Counter("memo.misses").Value(),
					m.Counter("memo.stores").Value(), m.Counter("memo.evictions").Value(),
					m.Counter("memo.coalesced").Value())
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
	if err := b.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
