package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/engine"
	"repro/internal/stats"
)

// workload is one named traffic mix. Every field is fixed by the name;
// only the seed varies the generated inputs.
type workload struct {
	name string
	why  string
	// applets installed, spread over identities coalesced trigger
	// identities (subscriptions). zipfS > 0 draws the member counts from
	// a truncated Zipf (stats.HeavyTailCounts); zero gives every
	// identity the same share.
	applets, identities int
	zipfS               float64
	// push mounts the push ingress and offers events there; otherwise
	// events are published into the partner services' buffers and
	// reach the engine by polling.
	push bool
	// nodes > 1 runs a cluster router over that many engine nodes.
	nodes int
	// shards per engine (0 = GOMAXPROCS).
	shards int
	// wal gives every node a durable store with fsync on.
	wal bool
	// slo turns on Config.SLO plus a metrics registry.
	slo bool
	// pollInterval is the fixed poll gap; zero keeps the paper cadence
	// (first poll ≥30 s after install, so polling idles in a run).
	pollInterval time.Duration
	// rate is the open-loop offered load in events per second.
	rate float64
	// t2aLimit is the trigger-to-action latency limit: the generator
	// may not run later than this, and drains wait at most twice it.
	t2aLimit time.Duration
	// reoffer is how many of the last delivered events push-durable
	// re-offers to the recovered engine; they must produce no action.
	reoffer int
}

var workloads = []workload{
	{
		name:       "push-fanout",
		why:        "low-latency push tier with skewed fan-out: 100K applets on 10K coalesced identities (Zipf s=0.5), single engine with SLO and metrics on",
		applets:    100_000,
		identities: 10_000,
		// A chosen exponent, not the paper's: Fig 3's skew (the top 1% of
		// applets hold 84.1% of adds) is over applets shared across users,
		// and a coalesced identity keys on the user, so it says nothing of
		// fan-out per identity. Calibrated to Fig 3 (s≈1.31), one identity
		// holds 25K applets and whether its burst lands in the window
		// decides the run: t2a_p50_ms read 31 and 75 ms on two seeds.
		// s=0.5 keeps the tail heavy (max ≈450 members, mean 10).
		zipfS:    0.5,
		push:     true,
		slo:      true,
		rate:     600,
		t2aLimit: time.Second,
	},
	{
		name:         "poll-steady",
		why:          "poll path alone: 20K distinct subscriptions polled every 2 s, events buffered at partner services and re-served up to k=50",
		applets:      20_000,
		identities:   20_000,
		pollInterval: 2 * time.Second,
		rate:         200,
		t2aLimit:     5 * time.Second,
	},
	{
		name:       "push-durable",
		why:        "writes beside reads: fan-out 1 push through a 2-node cluster, each node with an fsync WAL and 4 shards, then kill -9 and recovery",
		applets:    20_000,
		identities: 20_000,
		push:       true,
		nodes:      2,
		shards:     4,
		wal:        true,
		rate:       2000,
		t2aLimit:   time.Second,
		reoffer:    1000,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scaled shrinks populations and rates by f (self-tests run at f≪1).
func (w workload) scaled(f float64) workload {
	if f == 1 {
		return w
	}
	sc := func(n int) int { return max(1, int(math.Round(float64(n)*f))) }
	w.applets = sc(w.applets)
	w.identities = min(sc(w.identities), w.applets)
	w.rate = math.Max(1, w.rate*f)
	if w.reoffer > 0 {
		w.reoffer = sc(w.reoffer)
	}
	return w
}

// Partner layout: identities spread round-robin over trigger services,
// and within a service over trigger slugs, so one Publish scans only a
// slug's share of the subscriptions.
const (
	partnerServices = 4
	slugsPerService = 50
	serviceKey      = "perfbench-key"
)

// population is the generated applet set plus the indexes the ledger
// and generator need. Applet n belongs to identity identOf[n] and is
// member number posOf[n] of it; identity i has members[i] applets.
type population struct {
	applets []engine.Applet // in install order
	identOf []int32         // by applet number
	posOf   []int32         // by applet number
	members []int32         // by identity
	keys    []string        // identity → coalesced trigger identity
}

func identityService(i int) int  { return i % partnerServices }
func identitySlug(i int) string  { return fmt.Sprintf("t%d", (i/partnerServices)%slugsPerService) }
func identityField(i int) string { return fmt.Sprintf("k%d", i) }

// newPopulation draws the applet set for w from seed. partnerURLs are
// the trigger services' base URLs, sinkURL the action sink's.
func newPopulation(w workload, seed uint64, partnerURLs []string, sinkURL string) *population {
	rng := stats.NewRNG(seed).Split("population")
	members := make([]int32, w.identities)
	if w.zipfS > 0 {
		extra := stats.HeavyTailCounts(w.identities, w.zipfS, int64(w.applets-w.identities))
		perm := rng.Perm(w.identities)
		for i, c := range extra {
			members[perm[i]] = int32(c) + 1
		}
	} else {
		for i := range members {
			members[i] = int32(w.applets / w.identities)
		}
		for i := 0; i < w.applets%w.identities; i++ {
			members[i]++
		}
	}
	p := &population{
		applets: make([]engine.Applet, 0, w.applets),
		identOf: make([]int32, w.applets),
		posOf:   make([]int32, w.applets),
		members: members,
		keys:    make([]string, w.identities),
	}
	n := 0
	for i, m := range members {
		for k := int32(0); k < m; k++ {
			a := engine.Applet{
				ID:     fmt.Sprintf("a%d", n),
				UserID: fmt.Sprintf("u%d", i),
				Trigger: engine.ServiceRef{
					Service:    fmt.Sprintf("trig%d", identityService(i)),
					BaseURL:    partnerURLs[identityService(i)],
					Slug:       identitySlug(i),
					Fields:     map[string]string{"key": identityField(i)},
					ServiceKey: serviceKey,
				},
				Action: engine.ServiceRef{
					Service:    "sink",
					BaseURL:    sinkURL,
					Slug:       "record",
					Fields:     map[string]string{"eid": "{{eid}}"},
					ServiceKey: serviceKey,
				},
			}
			if k == 0 {
				p.keys[i] = a.CoalescedTriggerIdentity()
			}
			p.applets = append(p.applets, a)
			p.identOf[n] = int32(i)
			p.posOf[n] = k
			n++
		}
	}
	// Install in a seeded random order, as a live population arrives.
	rng.Shuffle(len(p.applets), func(i, j int) { p.applets[i], p.applets[j] = p.applets[j], p.applets[i] })
	return p
}

// schedule is the open-loop send plan: event k is due at offset at[k]
// from the run's start and targets identity ident[k]. Events due
// before warm are warm-up; the measured window is [warm, end).
type schedule struct {
	at    []time.Duration
	ident []int32
	warm  time.Duration
	end   time.Duration
}

// newSchedule draws random arrivals at w.rate over warm+window: the
// warm-up and the window each get exactly rate×length events, at
// uniformly drawn times. That is a Poisson process given its count, so
// gaps stay random, but the amount of work in the window does not vary
// with the seed as a free Poisson count does (±1.8% at 200 events/s
// over 15 s). Events visit identities in a seeded random order, so no
// identity repeats until all have been used.
func newSchedule(w workload, seed uint64, warm, window time.Duration) *schedule {
	rng := stats.NewRNG(seed).Split("schedule")
	perm := rng.Perm(w.identities)
	s := &schedule{warm: warm, end: warm + window}
	for _, ph := range [][2]time.Duration{{0, warm}, {warm, s.end}} {
		n := int(math.Round(w.rate * (ph[1] - ph[0]).Seconds()))
		at := make([]time.Duration, n)
		for i := range at {
			at[i] = ph[0] + time.Duration(rng.Float64()*float64(ph[1]-ph[0]))
		}
		slices.Sort(at)
		s.at = append(s.at, at...)
	}
	for k := range s.at {
		s.ident = append(s.ident, int32(perm[k%len(perm)]))
	}
	return s
}

// inWindow reports whether event k is inside the measured window.
func (s *schedule) inWindow(k int) bool { return s.at[k] >= s.warm }
