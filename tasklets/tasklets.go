// Package tasklets is the public API of the Tasklet middleware — a
// distributed computing system that overcomes device heterogeneity by
// running self-contained computation units ("tasklets") on a common virtual
// machine across any mix of machines, mediated by a broker and governed by
// per-tasklet Quality-of-Computation goals.
//
// A minimal deployment has three processes (or three objects in one test
// process):
//
//	b := tasklets.NewBroker(tasklets.BrokerOptions{})
//	addr, _ := b.Listen("127.0.0.1:0")
//
//	p, _ := tasklets.StartProvider(tasklets.ProviderOptions{Broker: addr, Slots: 4})
//	defer p.Close()
//
//	c, _ := tasklets.Dial(addr)
//	defer c.Close()
//
//	prog, _ := tasklets.Compile(`func main(n int) int { return n * n; }`)
//	job, _ := c.Map(prog, [][]tasklets.Value{{tasklets.Int(3)}, {tasklets.Int(4)}}, tasklets.JobOptions{})
//	results, _ := job.Collect(context.Background())
//
// Tasklets are written in TCL, a small C-like language (see the repository
// README for the language reference), compiled once with Compile, and
// executed wherever the broker's scheduling policy places them. QoC goals
// (redundant execution, majority voting, deadlines) make the results
// trustworthy even on fleets that churn or misbehave.
package tasklets

import (
	"errors"
	"fmt"
	"log"
	"time"

	"repro/internal/broker"
	"repro/internal/consumer"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/provider"
	"repro/internal/scheduler"
	"repro/internal/tasklang"
	"repro/internal/tvm"
)

// Value is a TVM value: the currency of tasklet parameters and results.
type Value = tvm.Value

// Value constructors, re-exported for parameter building.
var (
	Int   = tvm.Int
	Float = tvm.Float
	Bool  = tvm.Bool
	Str   = tvm.Str
	Arr   = tvm.Arr
	Nil   = tvm.Nil
)

// QoC carries a tasklet's Quality-of-Computation goals.
type QoC = core.QoC

// QoC modes.
const (
	// BestEffort runs one attempt and reports whatever happens.
	BestEffort = core.QoCBestEffort
	// Redundant runs replicas on distinct providers; first success wins.
	Redundant = core.QoCRedundant
	// Voting accepts a result once a majority of Replicas distinct providers
	// agree on it. Only that majority runs up front (2 of 3, 3 of 5); the
	// remaining replicas, and then retries, run only when disagreement,
	// faults or lost providers leave the majority short.
	Voting = core.QoCVoting
)

// DeviceClass describes the kind of machine a provider runs on.
type DeviceClass = core.DeviceClass

// Device classes.
const (
	ClassServer   = core.ClassServer
	ClassDesktop  = core.ClassDesktop
	ClassLaptop   = core.ClassLaptop
	ClassMobile   = core.ClassMobile
	ClassEmbedded = core.ClassEmbedded
)

// Program is a compiled tasklet program, ready to submit or run locally.
type Program struct {
	prog *tvm.Program
	data []byte
}

// Compile compiles TCL source. The entry point is the function named
// "main"; its parameters are the tasklet parameters.
func Compile(src string) (*Program, error) {
	prog, err := tasklang.Compile(src)
	if err != nil {
		return nil, err
	}
	data, err := prog.MarshalBinary()
	if err != nil {
		return nil, err
	}
	return &Program{prog: prog, data: data}, nil
}

// Bytecode returns the portable binary encoding of the program.
func (p *Program) Bytecode() []byte { return p.data }

// Disassemble renders the program's bytecode as readable assembler.
func (p *Program) Disassemble() string { return p.prog.Disassemble() }

// LocalResult is the outcome of a local (in-process) execution.
type LocalResult struct {
	Return   Value
	Emitted  []Value
	Printed  []string
	FuelUsed uint64
}

// RunLocal executes the program in this process — the fallback every
// Tasklet application keeps for disconnected operation, and the baseline
// the offload experiments compare against.
func RunLocal(p *Program, params ...Value) (*LocalResult, error) {
	return RunLocalSeeded(p, 1, 0, params...)
}

// RunLocalSeeded is RunLocal with an explicit rand() seed and fuel budget
// (0 selects the default budget).
func RunLocalSeeded(p *Program, seed uint64, fuel uint64, params ...Value) (*LocalResult, error) {
	cfg := tvm.DefaultConfig()
	cfg.Seed = seed
	if fuel > 0 {
		cfg.Fuel = fuel
	}
	res, err := tvm.New(p.prog, cfg).Run(params...)
	if err != nil {
		return nil, err
	}
	return &LocalResult{
		Return:   res.Return,
		Emitted:  res.Emitted,
		Printed:  res.Printed,
		FuelUsed: res.FuelUsed,
	}, nil
}

// ---------- broker ----------

// BrokerOptions configures a broker. The zero value works.
type BrokerOptions struct {
	// Policy names the scheduling policy: one of "random", "round_robin",
	// "fastest", "least_loaded", "work_steal" (default), "reliable",
	// "deadline".
	Policy string
	// PolicySeed seeds stochastic policies.
	PolicySeed uint64
	// HeartbeatTimeout declares providers dead after this silence
	// (default 5s).
	HeartbeatTimeout time.Duration
	// Logger receives operational logs; nil disables logging.
	Logger *log.Logger
	// MemoEntries, MemoBytes and MemoTTL bound the broker's result memo
	// (content-addressed cache of finalized results plus coalescing of
	// identical in-flight tasklets). Zero selects the defaults; any
	// negative value disables memoization. See README "Result memoization".
	MemoEntries int
	MemoBytes   int
	MemoTTL     time.Duration
}

// Broker mediates between consumers and providers.
type Broker struct {
	b *broker.Broker
}

// NewBroker creates a broker.
func NewBroker(opts BrokerOptions) (*Broker, error) {
	var pol scheduler.Policy
	if opts.Policy != "" {
		p, err := scheduler.New(opts.Policy, opts.PolicySeed)
		if err != nil {
			return nil, err
		}
		pol = p
	}
	return &Broker{b: broker.New(broker.Options{
		Policy:           pol,
		HeartbeatTimeout: opts.HeartbeatTimeout,
		Logger:           opts.Logger,
		MemoEntries:      opts.MemoEntries,
		MemoBytes:        opts.MemoBytes,
		MemoTTL:          opts.MemoTTL,
	})}, nil
}

// Listen binds the address (use ":0" for an ephemeral port) and starts
// serving. It returns the bound address providers and consumers dial.
func (b *Broker) Listen(addr string) (string, error) { return b.b.Listen(addr) }

// Close shuts the broker down.
func (b *Broker) Close() error { return b.b.Close() }

// Metrics exposes the broker's counters and histograms.
func (b *Broker) Metrics() *metrics.Registry { return b.b.Metrics() }

// Providers lists currently-registered providers.
func (b *Broker) Providers() []core.ProviderInfo { return b.b.Snapshot().Providers }

// ---------- provider ----------

// ProviderOptions configures a provider daemon.
type ProviderOptions struct {
	// Broker is the broker address. Required.
	Broker string
	// Slots is the number of concurrent executions (default 1).
	Slots int
	// Class is the advertised device class.
	Class DeviceClass
	// Throttle in (0,1] emulates a slower device (default 1).
	Throttle float64
	// Name appears in broker logs.
	Name string
	// Logger receives operational logs; nil disables logging.
	Logger *log.Logger
	// FailAfter, when positive, makes the provider abruptly disconnect
	// after executing that many tasklets — a churn-injection knob for
	// reliability demonstrations and tests.
	FailAfter int
	// HeartbeatInterval is how often the provider pings the broker
	// (default 1s). Keep it well under the broker's HeartbeatTimeout.
	HeartbeatInterval time.Duration
}

// Provider donates this process's cycles to the middleware.
type Provider struct {
	p *provider.Provider
}

// StartProvider connects to the broker, benchmarks this host's execution
// speed, registers, and begins accepting tasklets.
func StartProvider(opts ProviderOptions) (*Provider, error) {
	if opts.Broker == "" {
		return nil, errors.New("tasklets: ProviderOptions.Broker is required")
	}
	p, err := provider.Connect(provider.Options{
		BrokerAddr:        opts.Broker,
		Slots:             opts.Slots,
		Class:             opts.Class,
		Throttle:          opts.Throttle,
		Name:              opts.Name,
		Logger:            opts.Logger,
		FailAfter:         opts.FailAfter,
		HeartbeatInterval: opts.HeartbeatInterval,
	})
	if err != nil {
		return nil, err
	}
	return &Provider{p: p}, nil
}

// Close disconnects the provider.
func (p *Provider) Close() error { return p.p.Close() }

// Executed reports how many tasklets this provider has run.
func (p *Provider) Executed() int64 { return p.p.Executed() }

// ID returns the broker-assigned provider ID (matches TaskResult.Provider).
func (p *Provider) ID() uint64 { return uint64(p.p.ID()) }

// ---------- consumer ----------

// Client is an application session with the broker.
type Client struct {
	c *consumer.Client
}

// Job is a handle on a submitted batch; see Results, Collect, Counts.
type Job = consumer.Job

// TaskResult is one tasklet's final outcome.
type TaskResult = consumer.TaskResult

// Dial connects a consumer session.
func Dial(addr string) (*Client, error) {
	c, err := consumer.Connect(addr, "tasklets-client")
	if err != nil {
		return nil, err
	}
	return &Client{c: c}, nil
}

// Close ends the session.
func (c *Client) Close() error { return c.c.Close() }

// JobOptions tunes a submission.
type JobOptions struct {
	// QoC goals applied to every tasklet in the job.
	QoC QoC
	// Fuel bounds each tasklet's execution (VM operations); zero selects
	// the broker default (100M).
	Fuel uint64
	// Seed feeds each tasklet's deterministic rand() builtin.
	Seed uint64
}

// Map submits one tasklet per parameter set — the bulk data-parallel
// operation ("run main over this parameter grid"). It returns once the job
// is sent, without waiting for the broker: a malformed job fails here, while
// a job the broker refuses ends with the broker's message, which
// Job.Collect returns and Job.Err reports.
func (c *Client) Map(p *Program, params [][]Value, opts JobOptions) (*Job, error) {
	return c.c.Submit(core.JobSpec{
		Program: p.Bytecode(),
		Params:  params,
		QoC:     opts.QoC,
		Fuel:    opts.Fuel,
		Seed:    opts.Seed,
	})
}

// Run submits a single tasklet and waits for its result.
func (c *Client) Run(p *Program, params []Value, opts JobOptions) (TaskResult, error) {
	job, err := c.Map(p, [][]Value{params}, opts)
	if err != nil {
		return TaskResult{}, err
	}
	for r := range job.Results() {
		return r, nil
	}
	if err := job.Err(); err != nil {
		return TaskResult{}, err
	}
	return TaskResult{}, fmt.Errorf("tasklets: job ended without a result")
}

// Cancel abandons a job's outstanding tasklets.
func (c *Client) Cancel(job *Job) error { return c.c.Cancel(job) }

// FleetProvider is one row of the broker's provider directory.
type FleetProvider = consumer.FleetProvider

// Fleet queries the broker's provider directory: registered providers with
// their class, capacity, measured speed and reliability, plus the number of
// tasklets currently awaiting placement.
func (c *Client) Fleet() ([]FleetProvider, int, error) { return c.c.Fleet() }
