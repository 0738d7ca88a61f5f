package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// shardState is everything the coordinator knows about one shard
// process: its client, its health, and the identity it advertised —
// model version (from the X-Model-Version header every serve response
// carries) and the item-row slice it holds (from /v1/info's shard
// block). The slice is what turns a shard-local item id back into a
// global one: global = local + offset.
type shardState struct {
	addr   string
	client *Client

	mu      sync.Mutex
	healthy bool
	ejected bool // was healthy once, then ejected (distinguishes readmission from first admission)
	fails   int  // consecutive probe/scatter failures
	version string
	// known marks the identity fields below as learned from /v1/info.
	known        bool
	index, count int
	offset, rows int
	total, users int
	lastProbe    time.Time
	lastErr      string
}

// snapshotState is a consistent copy of a shard's mutable fields, the
// form handlers read so no lock is held across a scatter.
type snapshotState struct {
	src          *shardState
	addr         string
	healthy      bool
	known        bool
	version      string
	index, count int
	offset, rows int
	total, users int
	lastErr      string
}

func (s *shardState) snapshot() snapshotState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return snapshotState{
		src: s, addr: s.addr, healthy: s.healthy, known: s.known, version: s.version,
		index: s.index, count: s.count, offset: s.offset, rows: s.rows,
		total: s.total, users: s.users, lastErr: s.lastErr,
	}
}

// shardInfo mirrors the fields the coordinator reads from a shard's
// /v1/info body.
type shardInfo struct {
	ModelVersion uint64 `json:"model_version"`
	Users        int    `json:"users"`
	Items        int    `json:"items"`
	Shard        *struct {
		Index  int `json:"index"`
		Count  int `json:"count"`
		Offset int `json:"offset"`
		Total  int `json:"total"`
	} `json:"shard"`
}

// probeAll probes every shard once, synchronously. Called on startup
// (so the coordinator starts with a live view), by the background
// prober, and after a reload fan-out (so version agreement recovers
// without waiting an interval).
func (c *Coordinator) probeAll(ctx context.Context) {
	var wg sync.WaitGroup
	for _, s := range c.shards {
		wg.Add(1)
		go func(s *shardState) {
			defer wg.Done()
			c.probe(ctx, s)
		}(s)
	}
	wg.Wait()
	c.updateAggregates()
}

// probe checks one shard's liveness via /v1/healthz — shed-exempt on
// the serve side, so overload can never masquerade as death — and
// refreshes its identity from /v1/info only when the version header
// changed or was never learned (info is NOT shed-exempt; probing it
// every tick could eject a merely busy shard).
func (c *Coordinator) probe(ctx context.Context, s *shardState) {
	pctx, cancel := context.WithTimeout(ctx, c.cfg.ProbeTimeout)
	defer cancel()
	resp, err := s.client.Do(pctx, http.MethodGet, "/v1/healthz", nil, nil)
	if err != nil || resp.Status != http.StatusOK {
		if err == nil {
			err = fmt.Errorf("healthz status %d", resp.Status)
		}
		c.noteFailure(s, err)
		return
	}
	version := resp.Header.Get("X-Model-Version")
	s.mu.Lock()
	needInfo := !s.known || s.version != version
	s.mu.Unlock()
	if needInfo {
		if err := c.refreshInfo(pctx, s); err != nil {
			c.noteFailure(s, err)
			return
		}
	}
	c.noteSuccess(s, version)
}

// refreshInfo learns (or relearns) a shard's identity from /v1/info.
// An unsharded server (no shard block) fronts as a single full slice —
// the degenerate 1-shard topology used by tests and migrations.
func (c *Coordinator) refreshInfo(ctx context.Context, s *shardState) error {
	resp, err := s.client.Do(ctx, http.MethodGet, "/v1/info", nil, nil)
	if err != nil {
		return err
	}
	if resp.Status != http.StatusOK {
		return fmt.Errorf("info status %d", resp.Status)
	}
	var info shardInfo
	if err := json.Unmarshal(resp.Body, &info); err != nil {
		return fmt.Errorf("info body: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.users = info.Users
	s.rows = info.Items
	if info.Shard != nil {
		s.index, s.count = info.Shard.Index, info.Shard.Count
		s.offset, s.total = info.Shard.Offset, info.Shard.Total
	} else {
		s.index, s.count, s.offset, s.total = 0, 1, 0, info.Items
	}
	s.known = true
	return nil
}

// noteFailure records one failed probe or scatter call; FailAfter
// consecutive failures eject the shard from the healthy set.
func (c *Coordinator) noteFailure(s *shardState, err error) {
	s.mu.Lock()
	s.fails++
	s.lastErr = err.Error()
	s.lastProbe = time.Now()
	eject := s.healthy && s.fails >= c.cfg.FailAfter
	if eject {
		s.healthy = false
		s.ejected = true
	}
	s.mu.Unlock()
	c.m.probeFailures.Inc()
	if eject {
		c.m.ejections.Inc()
		c.cfg.Log.Warn("coord: shard ejected", "addr", s.addr, "err", err.Error())
		c.updateAggregates()
	}
}

// noteSuccess records a healthy answer, readmitting an ejected shard.
func (c *Coordinator) noteSuccess(s *shardState, version string) {
	s.mu.Lock()
	readmit := s.ejected
	s.ejected = false
	s.healthy = true
	s.fails = 0
	s.lastErr = ""
	s.version = version
	s.lastProbe = time.Now()
	s.mu.Unlock()
	if readmit {
		c.m.readmissions.Inc()
		c.cfg.Log.Info("coord: shard readmitted", "addr", s.addr, "model_version", version)
	}
	c.updateAggregates()
}

// updateAggregates recomputes the health gauges: the healthy count and
// the version-agreement flag. Versions must agree across every healthy
// shard — a coordinator merging two model versions would produce lists
// no single model ranked, so disagreement fails readiness (healthz 503)
// until a coordinated /v1/reload brings the fleet back in step.
func (c *Coordinator) updateAggregates() {
	healthy, mismatch := c.agreement()
	c.m.healthyShards.Set(float64(healthy))
	if mismatch {
		c.m.versionMismatch.Set(1)
	} else {
		c.m.versionMismatch.Set(0)
	}
}

// agreement counts healthy shards and reports whether their model
// versions disagree.
func (c *Coordinator) agreement() (healthy int, mismatch bool) {
	version := ""
	for _, s := range c.shards {
		st := s.snapshot()
		if !st.healthy {
			continue
		}
		healthy++
		if version == "" {
			version = st.version
		} else if st.version != version {
			mismatch = true
		}
	}
	return healthy, mismatch
}

// prober is the background probe loop; Close stops it.
func (c *Coordinator) prober(ctx context.Context) {
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			c.probeAll(ctx)
		}
	}
}
