package core

import (
	"sync"
	"time"
)

// Circuit-breaker defaults. A source is declared dead after
// DefaultBreakerThreshold consecutive classified unavailabilities and
// probed again after DefaultBreakerCooldown.
const (
	DefaultBreakerThreshold = 3
	DefaultBreakerCooldown  = 5 * time.Second
)

// BreakerState is the state of one source's circuit breaker.
type BreakerState uint8

// Breaker states. Closed is the healthy default: submits flow. Open means
// the source accumulated enough consecutive unavailabilities that routing
// skips it where a replica can answer instead. HalfOpen admits a single
// probe after the cooldown; its outcome closes or reopens the breaker.
const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

// String returns the lowercase state name.
func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// Breakers tracks a per-source circuit breaker keyed by repository name.
// The availability classifier feeds it (only classified unavailability
// counts as failure — a source that answered, even with an error, is
// alive) and replica routing consults it, so repeat queries skip a
// known-dead copy without re-paying its timeout. It is safe for concurrent
// use.
type Breakers struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time // injectable for tests

	mu      sync.Mutex
	sources map[string]*sourceBreaker
	// notify is invoked (outside the lock) whenever any source's state
	// changes — the hook the mediator uses to flush cost-model caches.
	notify func()
}

type sourceBreaker struct {
	state       BreakerState
	consecutive int
	openedAt    time.Time
	probing     bool
}

// NewBreakers returns a breaker set that opens after threshold consecutive
// failures and half-opens a probe after cooldown. Non-positive arguments
// take the defaults.
func NewBreakers(threshold int, cooldown time.Duration) *Breakers {
	if threshold <= 0 {
		threshold = DefaultBreakerThreshold
	}
	if cooldown <= 0 {
		cooldown = DefaultBreakerCooldown
	}
	return &Breakers{
		threshold: threshold,
		cooldown:  cooldown,
		now:       time.Now,
		sources:   make(map[string]*sourceBreaker),
	}
}

// SetNotify registers a hook invoked after any source's breaker changes
// state. It must be set before the breakers are shared across goroutines.
func (b *Breakers) SetNotify(f func()) { b.notify = f }

func (b *Breakers) get(repo string) *sourceBreaker {
	s, ok := b.sources[repo]
	if !ok {
		s = &sourceBreaker{}
		b.sources[repo] = s
	}
	return s
}

// Allow reports whether a submit may be routed to the source right now.
// Closed always allows. Open allows nothing until the cooldown elapses,
// at which point the breaker transitions to half-open and Allow grants
// exactly one probe (the timer of the half-open protocol); further calls
// are refused until that probe reports Success or Failure.
//
// Allow is advisory: a copy whose breaker refuses becomes a deferred arm
// of its shard's read, dialed once no admittable copy is left to answer
// (and a lone copy is dialed regardless), so an open breaker can delay but
// never forge an unavailability verdict.
func (b *Breakers) Allow(repo string) bool {
	b.mu.Lock()
	s := b.get(repo)
	was := s.state
	var allowed bool
	switch s.state {
	case BreakerClosed:
		allowed = true
	case BreakerOpen:
		if b.now().Sub(s.openedAt) >= b.cooldown {
			s.state = BreakerHalfOpen
			s.probing = true
			allowed = true
		}
	default: // BreakerHalfOpen
		if !s.probing {
			s.probing = true
			allowed = true
		}
	}
	changed := s.state != was
	b.mu.Unlock()
	if changed && b.notify != nil {
		b.notify()
	}
	return allowed
}

// Success records an answered submit (data or a genuine source error —
// either proves the source alive) and closes the breaker.
func (b *Breakers) Success(repo string) {
	b.mu.Lock()
	s := b.get(repo)
	changed := s.state != BreakerClosed
	s.state = BreakerClosed
	s.consecutive = 0
	s.probing = false
	b.mu.Unlock()
	if changed && b.notify != nil {
		b.notify()
	}
}

// Failure records one classified unavailability. The threshold-th
// consecutive failure opens the breaker; a failure while open or
// half-open (a failed probe) re-arms the cooldown.
func (b *Breakers) Failure(repo string) {
	b.mu.Lock()
	s := b.get(repo)
	was := s.state
	s.consecutive++
	s.probing = false
	switch s.state {
	case BreakerClosed:
		if s.consecutive >= b.threshold {
			s.state = BreakerOpen
			s.openedAt = b.now()
		}
	default: // Open or HalfOpen: the probe failed, re-arm the cooldown.
		s.state = BreakerOpen
		s.openedAt = b.now()
	}
	changed := s.state != was
	b.mu.Unlock()
	if changed && b.notify != nil {
		b.notify()
	}
}

// Release returns an unredeemed half-open probe slot: the attempt Allow
// admitted was abandoned before producing a verdict (caller cancelled, or
// the call failed mediator-side without dialing the source). Without it a
// claimed probe would pin the breaker half-open forever.
func (b *Breakers) Release(repo string) {
	b.mu.Lock()
	if s, ok := b.sources[repo]; ok {
		s.probing = false
	}
	b.mu.Unlock()
}

// Admittable reports whether Allow would admit the source right now,
// without claiming the half-open probe slot. A shard read uses it to sort
// its copies into arms and deferred arms before any is dialed — the
// deadline split needs the admittable count first — leaving the slot
// claim to the Allow call made when an arm launches.
func (b *Breakers) Admittable(repo string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	s, ok := b.sources[repo]
	if !ok {
		return true
	}
	switch s.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		return b.now().Sub(s.openedAt) >= b.cooldown
	default: // BreakerHalfOpen
		return !s.probing
	}
}

// State returns the source's current breaker state without side effects
// (an open breaker past its cooldown still reads Open until a router asks
// Allow). Unknown sources read Closed.
func (b *Breakers) State(repo string) BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	if s, ok := b.sources[repo]; ok {
		return s.state
	}
	return BreakerClosed
}
