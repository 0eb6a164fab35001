package cluster

import (
	"math"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
)

// shadowVerifier is the coordinator's deploy-safety canary. It samples a
// configurable fraction of live, successful /v1/schedule responses and
// replays each against a second worker — the designated canary, or the
// next-HRW-ranked node after the one that served — then byte-compares the
// two bodies. The fleet's responses are deterministic by construction
// (content-addressed requests, verified schedules, no wall-clock fields),
// so any divergence means two workers are running different algorithms:
// exactly the silent failure a rolling upgrade or a drifted binary smuggles
// past per-node health checks. A mismatch increments
// gpcoordd_shadow_mismatch_total and marks the node whose advertised
// version is the fleet outlier suspect.
type shadowVerifier struct {
	c   *Coordinator
	seq atomic.Int64
	wg  sync.WaitGroup

	// hook, when set, observes every completed replay (tests synchronize
	// on it). Called after the counters are updated.
	hook func(primary, shadow string, match bool)
}

// sampled reports whether request n of the stream falls in the sampled
// fraction. Counter-based instead of random: with rate r, replay fires
// whenever the integer part of n·r advances, which spreads samples evenly
// and makes tests deterministic (rate 1 samples everything).
func (s *shadowVerifier) sampled(rate float64) bool {
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		s.seq.Add(1)
		return true
	}
	n := s.seq.Add(1)
	return math.Floor(float64(n)*rate) > math.Floor(float64(n-1)*rate)
}

// maybeReplay runs after a 200 response has been relayed to the client: if
// this request is sampled and a distinct shadow worker exists, replay the
// request against it asynchronously (the client never waits on the canary)
// and compare bytes.
func (s *shadowVerifier) maybeReplay(primary candidate, key string, reqBody, served []byte) {
	if !s.sampled(s.c.cfg.ShadowRate) {
		return
	}
	shadow, ok := s.pick(primary, key)
	if !ok {
		return
	}
	s.c.metrics.shadowSampled.Add(1)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.replay(primary, shadow, reqBody, served)
	}()
}

// pick chooses the shadow worker: the designated canary when configured,
// otherwise the next node down the request's HRW ranking — the worker that
// would have served this exact request had the primary been away, so the
// comparison exercises the same placement the next failover will.
func (s *shadowVerifier) pick(primary candidate, key string) (candidate, bool) {
	cands := s.c.reg.candidates()
	if canary := s.c.cfg.ShadowCanary; canary != "" {
		for _, cand := range cands {
			if cand.id == canary && cand.id != primary.id {
				return cand, true
			}
		}
		return candidate{}, false
	}
	shadow, _, _, ok := place(cands, key, map[string]bool{primary.id: true}, 0)
	return shadow, ok
}

// replay posts the request to the shadow worker and compares its bytes to
// the ones the client received. The replay context is the coordinator's
// own (not the original request's — the client is long gone), so Close
// aborts in-flight replays.
func (s *shadowVerifier) replay(primary, shadow candidate, reqBody, served []byte) {
	resp, body, err := s.c.forward(s.c.ctx, shadow, "/v1/schedule", reqBody, s.c.cfg.ScheduleTimeout, "")
	match := false
	switch {
	case err != nil || resp.StatusCode != http.StatusOK:
		// A failed replay is a shadow-worker health problem, not a
		// divergence verdict: report it like any failed proxied request and
		// leave the mismatch counter alone.
		if s.c.ctx.Err() == nil {
			s.c.reg.reportFailure(shadow.id)
		}
	case string(body) == string(served):
		match = true
	default:
		s.c.metrics.shadowMismatch.Add(1)
		s.diverged(primary, shadow)
	}
	if s.hook != nil {
		s.hook(primary.id, shadow.id, match)
	}
}

// diverged attributes a byte mismatch: the node whose advertised algorithm
// version differs from the fleet's dominant version is the outlier and
// goes suspect. When both sides claim the same version the divergence is
// unattributable — one of them is lying about its algorithm — so both go
// suspect and the operator decides.
func (s *shadowVerifier) diverged(primary, shadow candidate) {
	dominant := s.c.reg.dominantVersion()
	pv, sv := s.c.reg.versionOf(primary.id), s.c.reg.versionOf(shadow.id)
	suspects := []string{}
	if pv != dominant {
		suspects = append(suspects, primary.id)
	}
	if sv != dominant {
		suspects = append(suspects, shadow.id)
	}
	if len(suspects) == 0 {
		suspects = []string{primary.id, shadow.id}
	}
	for _, id := range suspects {
		s.c.reg.markSuspect(id)
	}
	s.c.log.Warn("shadow verify: identical request diverged",
		"primary", primary.id, "primary_version", pv,
		"shadow", shadow.id, "shadow_version", sv,
		"dominant_version", dominant, "suspects", strings.Join(suspects, ","))
}
