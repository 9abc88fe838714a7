// Command tasklet-provider donates this machine's cycles to a Tasklet
// broker: it benchmarks local execution speed, registers, and executes
// assigned tasklets in sandboxed VMs.
//
// Usage:
//
//	tasklet-provider -broker 127.0.0.1:7420 -slots 4
//	tasklet-provider -broker ... -throttle 0.25 -class mobile   # emulate a phone
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
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
	brokerAddr := flag.String("broker", "127.0.0.1:7420", "broker address")
	slots := flag.Int("slots", 1, "concurrent tasklet executions")
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

	opts := provider.Options{
		BrokerAddr: *brokerAddr,
		Slots:      *slots,
		Class:      cls,
		Throttle:   *throttle,
		Name:       *name,
		Logger:     logger,
		FailAfter:  *failAfter,
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	backoff := time.Second
	for {
		p, err := provider.Connect(opts)
		if err != nil {
			if !*reconnect {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "connect failed (%v); retrying in %v\n", err, backoff)
			select {
			case <-sig:
				return
			case <-time.After(backoff):
			}
			if backoff < 30*time.Second {
				backoff *= 2
			}
			continue
		}
		backoff = time.Second
		fmt.Printf("tasklet-provider %d connected to %s (%d slots)\n", p.ID(), *brokerAddr, *slots)

		done := make(chan struct{})
		go func() {
			p.Wait() // broker gone or injected failure
			close(done)
		}()
		select {
		case <-sig:
			fmt.Println("shutting down")
			p.Close()
			return
		case <-done:
			fmt.Printf("connection ended after %d tasklets\n", p.Executed())
			if !*reconnect {
				return
			}
		}
	}
}
