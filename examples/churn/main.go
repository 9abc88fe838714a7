// Churn: reliability on an unreliable fleet. Two of the three providers
// crash partway through the job; the broker's failure detector and the QoC
// engine re-issue the lost tasklets, and the whole batch still completes
// correctly. A second round demonstrates majority voting over redundant
// executions.
//
//	go run ./examples/churn
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/tasklets"
)

func main() {
	broker, err := tasklets.NewBroker(tasklets.BrokerOptions{
		HeartbeatTimeout: 500 * time.Millisecond, // fast failure detection for the demo
	})
	if err != nil {
		log.Fatal(err)
	}
	addr, err := broker.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer broker.Close()

	// Two flaky providers (they crash after 8 tasklets each) and one
	// stable one.
	for i := 0; i < 2; i++ {
		p, err := tasklets.StartProvider(tasklets.ProviderOptions{
			Broker: addr, Slots: 1, Name: fmt.Sprintf("flaky-%d", i), FailAfter: 8,
			HeartbeatInterval: 100 * time.Millisecond,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer p.Close()
	}
	stable, err := tasklets.StartProvider(tasklets.ProviderOptions{
		Broker: addr, Slots: 1, Name: "stable",
		HeartbeatInterval: 100 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer stable.Close()

	prog, err := tasklets.Compile(`
		func main(n int) int {
			// A little real work so crashes land mid-job.
			var acc int = 0;
			for (var i int = 0; i < 200000; i = i + 1) { acc = acc + i % 7; }
			return n * n + acc - acc;
		}
	`)
	if err != nil {
		log.Fatal(err)
	}

	client, err := tasklets.Dial(addr)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	const n = 40
	params := make([][]tasklets.Value, n)
	for i := range params {
		params[i] = []tasklets.Value{tasklets.Int(int64(i))}
	}

	fmt.Println("round 1: best-effort QoC on a crashing fleet")
	start := time.Now()
	job, err := client.Map(prog, params, tasklets.JobOptions{})
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	results, err := job.Collect(ctx)
	if err != nil {
		log.Fatal(err)
	}
	retried := 0
	for i, r := range results {
		if !r.OK() {
			log.Fatalf("tasklet %d failed: %s", i, r.Fault)
		}
		if r.Return.I != int64(i*i) {
			log.Fatalf("tasklet %d wrong: %s", i, r.Return)
		}
		if r.Attempts > 1 {
			retried++
		}
	}
	fmt.Printf("  all %d tasklets correct in %v; %d were re-issued after provider crashes\n",
		n, time.Since(start).Round(time.Millisecond), retried)
	fmt.Printf("  stable provider executed %d tasklets\n\n", stable.Executed())

	// Round 2: voting. Every tasklet runs on 2 distinct providers — the
	// majority of 3 — and completes when they agree; the third replica runs
	// only if they do not, or a provider is lost (the broker re-spreads as
	// the fleet changes).
	fmt.Println("round 2: majority voting (3 replicas) on the surviving fleet")
	for i := 0; i < 2; i++ {
		p, err := tasklets.StartProvider(tasklets.ProviderOptions{
			Broker: addr, Slots: 1, Name: fmt.Sprintf("late-%d", i),
			HeartbeatInterval: 100 * time.Millisecond,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer p.Close()
	}
	job2, err := client.Map(prog, params[:10], tasklets.JobOptions{
		QoC: tasklets.QoC{Mode: tasklets.Voting, Replicas: 3},
	})
	if err != nil {
		log.Fatal(err)
	}
	results2, err := job2.Collect(ctx)
	if err != nil {
		log.Fatal(err)
	}
	for i, r := range results2 {
		if !r.OK() || r.Return.I != int64(i*i) {
			log.Fatalf("voting tasklet %d: %+v", i, r)
		}
	}
	fmt.Printf("  10 tasklets completed with %d-way agreement each\n", 2)
	fmt.Println("done")
}
