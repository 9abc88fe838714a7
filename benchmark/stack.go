package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/broker"
	"repro/internal/metrics"
	"repro/internal/provider"
	"repro/internal/stdtasks"
	"repro/internal/tasklang"
)

// churnReconnect is how long a churning provider stays away after its
// injected failure before the benchmark reconnects it.
const churnReconnect = 300 * time.Millisecond

// stack is the default-configured system under test: one broker listening
// on 127.0.0.1, the workload's provider fleet, all in this process and all
// built through the public constructors.
type stack struct {
	broker   *broker.Broker
	addr     string
	provReg  *metrics.Registry // shared by every provider, so counters sum over the fleet
	bytecode []byte

	providers []*provider.Provider // the non-churning fleet

	churnMu      sync.Mutex
	churnStopped bool
	churnLive    []*provider.Provider
	churnStop    chan struct{}
	churnWG      sync.WaitGroup
}

func startStack(w *workloadSpec) (*stack, error) {
	prog, err := tasklang.Compile(stdtasks.Sources[w.program])
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", w.program, err)
	}
	code, err := prog.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("marshal %s: %w", w.program, err)
	}
	s := &stack{
		broker:    broker.New(broker.Options{}),
		provReg:   &metrics.Registry{},
		bytecode:  code,
		churnStop: make(chan struct{}),
	}
	if s.addr, err = s.broker.Listen("127.0.0.1:0"); err != nil {
		return nil, fmt.Errorf("broker listen: %w", err)
	}
	for i, ps := range w.fleet {
		opts := provider.Options{
			BrokerAddr: s.addr, Slots: ps.slots, Speed: 100, Throttle: ps.throttle,
			FailAfter: ps.failAfter, Name: fmt.Sprintf("%s-%d", w.name, i), Metrics: s.provReg,
		}
		p, err := provider.Connect(opts)
		if err != nil {
			s.close()
			return nil, fmt.Errorf("provider %d: %w", i, err)
		}
		if ps.failAfter == 0 {
			s.providers = append(s.providers, p)
			continue
		}
		s.churnLive = append(s.churnLive, p)
		s.churnWG.Add(1)
		go s.churn(len(s.churnLive)-1, p, opts)
	}
	return s, nil
}

// churn waits for provider p's injected failure, stays away for
// churnReconnect, and brings a fresh provider with the same options back,
// until the stack closes.
func (s *stack) churn(slot int, p *provider.Provider, opts provider.Options) {
	defer s.churnWG.Done()
	for {
		p.Wait()
		select {
		case <-s.churnStop:
			return
		case <-time.After(churnReconnect):
		}
		next, err := provider.Connect(opts)
		if err != nil {
			continue // broker going away; the stop check above ends the loop
		}
		s.churnMu.Lock()
		if s.churnStopped {
			s.churnMu.Unlock()
			next.Close()
			return
		}
		s.churnLive[slot] = next
		s.churnMu.Unlock()
		p = next
	}
}

func (s *stack) close() {
	s.churnMu.Lock()
	s.churnStopped = true
	close(s.churnStop)
	for _, p := range s.churnLive {
		p.Close()
	}
	s.churnMu.Unlock()
	s.churnWG.Wait()
	for _, p := range s.providers {
		p.Close()
	}
	s.broker.Close()
}
