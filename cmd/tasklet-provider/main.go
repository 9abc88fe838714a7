// Command tasklet-provider donates this machine's cycles to a Tasklet
// broker: it benchmarks local execution speed, registers, and executes
// assigned tasklets in sandboxed VMs.
//
// Usage:
//
//	tasklet-provider -broker 127.0.0.1:7420 -slots 4
//	tasklet-provider -broker ... -throttle 0.25 -class mobile   # emulate a phone
//
// Against a sharded broker group, pass a comma-separated address list to
// multi-home: the provider registers with every listed shard, splitting
// its slot budget so total concurrency is unchanged (any remainder goes to
// the first shards in the list; more shards than slots is an error):
//
//	tasklet-provider -broker host:7420,host:7421 -slots 5      # 3 + 2 slots
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/provider"
)

var classes = map[string]core.DeviceClass{
	"server": core.ClassServer, "desktop": core.ClassDesktop,
	"laptop": core.ClassLaptop, "mobile": core.ClassMobile,
	"embedded": core.ClassEmbedded, "unknown": core.ClassUnknown,
}

func main() {
	brokerAddr := flag.String("broker", "127.0.0.1:7420",
		"broker address; a comma-separated list multi-homes across a shard group, splitting -slots")
	slots := flag.Int("slots", 1, "concurrent tasklet executions (split across multi-homed brokers)")
	throttle := flag.Float64("throttle", 1.0, "speed factor in (0,1] emulating a slower device")
	class := flag.String("class", "unknown", "advertised device class (server, desktop, laptop, mobile, embedded)")
	name := flag.String("name", "", "provider name shown in broker logs")
	failAfter := flag.Int("fail-after", 0, "abruptly disconnect after N tasklets (churn injection; 0 = never)")
	reconnect := flag.Bool("reconnect", false, "keep reconnecting with backoff when the broker goes away")
	quiet := flag.Bool("q", false, "suppress operational logs")
	flag.Parse()

	cls, ok := classes[*class]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown class %q\n", *class)
		os.Exit(2)
	}
	logger := log.New(os.Stderr, "", log.LstdFlags)
	if *quiet {
		logger = nil
	}

	var addrs []string
	for _, a := range strings.Split(*brokerAddr, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		fmt.Fprintln(os.Stderr, "no broker address given")
		os.Exit(2)
	}
	if *slots < 1 {
		fmt.Fprintln(os.Stderr, "-slots must be at least 1")
		os.Exit(2)
	}
	if len(addrs) > *slots {
		fmt.Fprintf(os.Stderr, "-slots %d cannot cover %d brokers (each home needs at least one slot); raise -slots or list fewer brokers\n",
			*slots, len(addrs))
		os.Exit(2)
	}
	// Multi-homing splits the slot budget so total concurrency matches
	// -slots exactly: every home gets the base share and the first
	// slots%len(addrs) homes absorb the remainder.
	base, rem := *slots/len(addrs), *slots%len(addrs)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	for i, addr := range addrs {
		perHome := base
		if i < rem {
			perHome++
		}
		opts := provider.Options{
			BrokerAddr: addr,
			Slots:      perHome,
			Class:      cls,
			Throttle:   *throttle,
			Name:       *name,
			Logger:     logger,
			FailAfter:  *failAfter,
		}
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			serveBroker(opts, *reconnect, stop)
		}(addr)
	}

	<-sig
	fmt.Println("shutting down")
	close(stop)
	wg.Wait()
}

// serveBroker keeps one broker connection alive until stop closes (or the
// connection ends with -reconnect off).
func serveBroker(opts provider.Options, reconnect bool, stop <-chan struct{}) {
	backoff := time.Second
	for {
		p, err := provider.Connect(opts)
		if err != nil {
			if !reconnect {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			fmt.Fprintf(os.Stderr, "connect %s failed (%v); retrying in %v\n", opts.BrokerAddr, err, backoff)
			select {
			case <-stop:
				return
			case <-time.After(backoff):
			}
			if backoff < 30*time.Second {
				backoff *= 2
			}
			continue
		}
		backoff = time.Second
		fmt.Printf("tasklet-provider %d connected to %s (%d slots)\n", p.ID(), opts.BrokerAddr, opts.Slots)

		done := make(chan struct{})
		go func() {
			p.Wait() // broker gone or injected failure
			close(done)
		}()
		select {
		case <-stop:
			p.Close()
			return
		case <-done:
			fmt.Printf("connection to %s ended after %d tasklets\n", opts.BrokerAddr, p.Executed())
			if !reconnect {
				return
			}
		}
	}
}
