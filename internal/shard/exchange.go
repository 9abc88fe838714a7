package shard

// Load is one shard's gossiped load snapshot: instantaneous queue depth and
// free placement credits (see Policy.Underloaded), plus an EWMA of the shard's service rate
// (tasklets finalized per second). Queue and Free drive the pull decision;
// Rate rides along so operators and future policies can reason about
// throughput, and it breaks ties between equally deep peers.
type Load struct {
	Shard uint64
	Queue int
	Free  int
	Rate  float64
}

// Policy tunes the pull-based work exchange. The zero value of any field
// selects the documented default, so brokers can embed a Policy literal and
// set only what they care about.
//
// The policy is deliberately one-sided: only an underloaded shard initiates
// a pull, and only for queued (never in-flight) work, so the exchange can
// slow down a hot shard's queue growth but never perturb running attempts.
type Policy struct {
	// Ratio is the hysteresis multiplier: a peer qualifies as a pull
	// source only when its queue exceeds Ratio×(self queue + 1).
	// Default 2. The +1 keeps the comparison meaningful when the puller
	// is fully drained.
	Ratio float64

	// MinGap is the absolute queue-depth gap below which no pull happens,
	// regardless of Ratio. It stops migration churn over trivially small
	// imbalances. Default 16.
	MinGap int

	// MaxPull caps tasklets requested per gossip interval so the exchange
	// never becomes the hot path. Default 64.
	MaxPull int
}

// Normalize fills defaulted fields.
func (p Policy) Normalize() Policy {
	if p.Ratio <= 0 {
		p.Ratio = 2
	}
	if p.MinGap <= 0 {
		p.MinGap = 16
	}
	if p.MaxPull <= 0 {
		p.MaxPull = 64
	}
	return p
}

// Underloaded reports whether a shard with the given load should consider
// pulling: it has free placement credits and less queued work than credits
// to fill, so pulled tasklets are placed immediately instead of re-queueing.
// Free counts credits, not only idle workers: it includes the queued places
// a provider running tiny attempts still has open, each worth at most
// wire.TinyExecNanos of work per slot (up to 32 per slot for attempts of a
// few µs), so a shard whose workers are busy with tiny work but whose
// providers' queues have room is underloaded too — work it pulls starts
// within that budget.
func (p Policy) Underloaded(self Load) bool {
	return self.Free > 0 && self.Queue < self.Free
}

// PlanPull decides one gossip interval's exchange action for self given the
// latest peer snapshots: pull n queued tasklets from peer `from`, or do
// nothing (ok=false). The most-loaded qualifying peer is chosen; n is half
// the queue gap (pulling the full gap would just invert the imbalance a
// gossip interval later), clamped to MaxPull.
func (p Policy) PlanPull(self Load, peers []Load) (from uint64, n int, ok bool) {
	p = p.Normalize()
	if !p.Underloaded(self) {
		return 0, 0, false
	}
	best := -1
	for i, peer := range peers {
		if peer.Shard == self.Shard || peer.Queue <= self.Queue {
			continue
		}
		if best < 0 || peer.Queue > peers[best].Queue ||
			(peer.Queue == peers[best].Queue && peer.Shard < peers[best].Shard) {
			best = i
		}
	}
	if best < 0 {
		return 0, 0, false
	}
	peer := peers[best]
	gap := peer.Queue - self.Queue
	if gap < p.MinGap || float64(peer.Queue) < p.Ratio*float64(self.Queue+1) {
		return 0, 0, false
	}
	n = gap / 2
	if n > p.MaxPull {
		n = p.MaxPull
	}
	if n < 1 {
		return 0, 0, false
	}
	return peer.Shard, n, true
}

// EWMAAlpha is the smoothing factor for gossiped service rates: ~70% of the
// weight sits in the last four samples, fast enough to track load shifts
// across a few gossip intervals without jittering on single-interval noise.
const EWMAAlpha = 0.3

// EWMA folds one service-rate sample into a running average. A zero prev
// with no history adopts the sample directly (handled by the caller passing
// sample as prev on first observation, or simply tolerating one warm-up
// interval).
func EWMA(prev, sample float64) float64 {
	return EWMAAlpha*sample + (1-EWMAAlpha)*prev
}
