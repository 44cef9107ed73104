package pbs

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pbs/internal/core"
	"pbs/internal/hist"
	"pbs/internal/lz"
	"pbs/internal/registry"
	"pbs/internal/setstore"
)

// Server answers reconciliation sessions concurrently over TCP (or any
// net.Listener). It is the deployment shape the non-blocking session
// engine exists for: every connection drives a ResponderSession against an
// immutable SharedSet from the server's registry, so N concurrent sessions
// share one validated snapshot of each set — one ToW sketch, one
// strong-verification digest, one group partition per plan size — instead
// of N private copies.
//
// One connection loop enforces per-session limits on top of the engine's
// own hardening (Options.MaxD): a cap on concurrent sessions, an idle
// deadline per frame, a total byte budget per session, and a round
// budget. A plain connection is one implicit stream; one that negotiates
// multiplexing carries many, each under the same limits. Violations are
// reported to the client as a coded msgError — a plain connection's final
// frame, or an enveloped close on the failing mux stream alone — and
// counted in the server stats.
//
// Protocol: a client may open with a msgHello frame naming the registered
// set to reconcile against; without one the session uses DefaultSetName.
// Everything after that is the standard wire protocol of sync.go, so
// SyncInitiator (via Client) talks to a Server unchanged. A fast client
// instead opens with a single msgHelloV1 frame (name, sketches, and a
// speculative first round in one), which the server admits and answers
// identically — the common warm sync then completes in one round trip.
// After a completed session the connection stays open and accepts another
// hello/estimate, so a warm client (Set.Sync over a held connection)
// amortizes the dial across many syncs; each session gets fresh byte and
// round budgets.
type Server struct {
	opt ServerOptions
	// protoOpt is opt.Protocol with defaults applied, resolved once; every
	// session runs under it.
	protoOpt Options

	// sets is the sharded set registry: striped by name hash so lookups on
	// the session hot path take only one shard's read lock, with per-tenant
	// ("tenant/name") quota accounting layered on top.
	sets *registry.Registry[setSource]
	// hosted manages evictable persistent sets (see hosted.go); store is
	// the segment layer, non-nil once EnableHosting has opened DataDir.
	hosted      *hostedStore
	hostedErr   error
	store       *setstore.Store
	closeHosted sync.Once

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	closed    bool
	// drainCh is closed (once) when the server starts closing, so accept
	// backoff sleeps and similar waits unblock immediately on Close or
	// Shutdown instead of riding out their timers.
	drainCh chan struct{}

	// connCount gauges accepted connections (including ones still before
	// their first frame) and backs the MaxSessions capacity check;
	// sessActive gauges connections with a protocol session in flight and
	// backs Stats().Active and Shutdown's drain, so an idle probe that
	// never sends a frame cannot hold up a graceful shutdown.
	connCount  atomic.Int64
	sessActive atomic.Int64

	accepted        atomic.Int64
	completed       atomic.Int64
	failed          atomic.Int64
	rejected        atomic.Int64
	shed            atomic.Int64
	bytesIn         atomic.Int64
	bytesOut        atomic.Int64
	rounds          atomic.Int64
	quotaRejections atomic.Int64

	// Mux accounting: streamsOpen gauges currently open mux streams across
	// all connections, streamsTotal counts every stream ever opened, and
	// bytesSaved sums the wire bytes the negotiated lz compression saved in
	// both directions.
	streamsOpen  atomic.Int64
	streamsTotal atomic.Int64
	bytesSaved   atomic.Int64

	// Adaptive-controller accounting across completed sessions: rounds
	// served under re-planned (m, t) parameters, and fast hellos whose
	// speculative round was answered in the opening reply (the initiator's
	// learned d̂ prior sized it right).
	adaptiveReplans atomic.Int64
	priorHits       atomic.Int64

	// Per-completed-session distributions (see ServerStats): wall-clock
	// latency in microseconds, protocol rounds, and wire bytes. Striped
	// atomics — recording is one atomic add, safe from every connection
	// goroutine at once.
	latencyHist hist.Histogram
	roundsHist  hist.Histogram
	bytesHist   hist.Histogram
}

// DefaultSetName is the registry entry a session reconciles against when
// the client does not send a msgHello frame.
const DefaultSetName = "default"

// Defaults for the per-session limits of ServerOptions.
const (
	DefaultMaxSessions       = 1024
	DefaultIdleTimeout       = 30 * time.Second
	DefaultSessionByteBudget = 16 * maxFrame             // 1 GiB of frames per session
	DefaultSessionMaxRounds  = 2 * core.DefaultMaxRounds // headroom over the engine's own cap
	// DefaultRetryAfterHint is the base retry-after hint attached to
	// busy-coded rejections when ServerOptions.RetryAfterHint is zero.
	DefaultRetryAfterHint = 250 * time.Millisecond
	// DefaultMaxStreams is the per-connection cap on concurrently open
	// mux streams when ServerOptions.MaxStreams is zero.
	DefaultMaxStreams = 128
)

// ServerOptions configures a Server. The zero value serves with the
// protocol defaults and the Default* session limits.
type ServerOptions struct {
	// Protocol is the protocol configuration every session runs under;
	// clients must use identical protocol options (Seed, SigBits, sketch
	// count, …). Its MaxD field is the d̂ cap the session engine enforces.
	Protocol *Options

	// MaxSessions caps concurrently open connections (each carries at
	// most one session; the cap also shields the server from idle
	// connection floods before a first frame arrives). Connections beyond
	// the cap are rejected with msgError. 0 selects DefaultMaxSessions;
	// negative removes the cap. Stats().Active reports only connections
	// actually reconciling.
	MaxSessions int
	// IdleTimeout is the per-frame read deadline: a session that sends
	// nothing for this long is dropped. 0 selects DefaultIdleTimeout;
	// negative disables the deadline.
	IdleTimeout time.Duration
	// SessionByteBudget caps the total wire bytes (both directions) of one
	// session. 0 selects DefaultSessionByteBudget; negative removes the cap.
	SessionByteBudget int64
	// SessionMaxRounds caps the msgRound frames answered in one session.
	// 0 selects DefaultSessionMaxRounds; negative removes the cap.
	SessionMaxRounds int
	// SoftSessionWatermark sheds new connections (busy-coded msgError with
	// a retry-after hint) before the hard MaxSessions cap is reached,
	// keeping headroom for the sequential session reuse of already-warm
	// connections while the server is saturated. 0 selects a default of
	// MaxSessions minus 1/8 headroom when MaxSessions >= 16 (disabled for
	// smaller caps); negative disables the watermark.
	SoftSessionWatermark int
	// RetryAfterHint is the base retry-after duration attached to
	// busy-coded rejections (watermark sheds and shutdown drains; the hard
	// capacity cap hints twice this). 0 selects DefaultRetryAfterHint;
	// negative omits the hint.
	RetryAfterHint time.Duration
	// MaxStreams caps the mux streams concurrently open on one connection
	// once a version-2 hello negotiates multiplexing; opens beyond the cap
	// are rejected per-stream with a busy-coded msgError. 0 selects
	// DefaultMaxStreams; negative disables mux negotiation entirely (every
	// feature offer is declined and connections stay single-stream).
	MaxStreams int

	// RegistryShards is the stripe count of the set registry (rounded up to
	// a power of two). 0 selects a default sized for tens of lookup
	// goroutines; raise it for servers pushing lookups from many cores.
	RegistryShards int
	// TenantQuota is the default per-tenant quota; a zero value means
	// unlimited. Per-tenant overrides via SetTenantQuota. Tenants are the
	// prefix of "tenant/name" set names; unprefixed names share the
	// anonymous tenant "".
	TenantQuota TenantQuota
	// DataDir is the directory the hosted-set segment store lives in;
	// EnableHosting opens it. Empty means hosted sets are memory-only and
	// never evicted.
	DataDir string
	// MaxResidentBytes is the watermark on the summed in-memory charge of
	// resident hosted sets: when exceeded, least-recently-used hosted sets
	// are flushed and evicted down to the watermark (they keep answering
	// estimates from persisted metadata; elements page back in on demand).
	// 0 means unlimited. Requires DataDir — without the persistence layer
	// eviction would discard data, so memory-only hosting ignores it.
	MaxResidentBytes int64
}

// TenantQuota bounds what one tenant may hold and do on a Server. Zero
// fields are unlimited. Bytes are logical (8 per element); sessions are
// concurrently active reconciliation sessions across the tenant's sets.
type TenantQuota struct {
	MaxSets     int64
	MaxBytes    int64
	MaxSessions int64
}

func (q TenantQuota) toRegistry() registry.Quota {
	return registry.Quota{MaxSets: q.MaxSets, MaxBytes: q.MaxBytes, MaxSessions: q.MaxSessions}
}

func (o ServerOptions) maxSessions() int64 {
	if o.MaxSessions == 0 {
		return DefaultMaxSessions
	}
	return int64(o.MaxSessions)
}

func (o ServerOptions) idleTimeout() time.Duration {
	if o.IdleTimeout == 0 {
		return DefaultIdleTimeout
	}
	return o.IdleTimeout
}

func (o ServerOptions) sessionByteBudget() int64 {
	if o.SessionByteBudget == 0 {
		return DefaultSessionByteBudget
	}
	return o.SessionByteBudget
}

func (o ServerOptions) sessionMaxRounds() int {
	if o.SessionMaxRounds == 0 {
		return DefaultSessionMaxRounds
	}
	return o.SessionMaxRounds
}

func (o ServerOptions) softWatermark() int64 {
	switch {
	case o.SoftSessionWatermark > 0:
		return int64(o.SoftSessionWatermark)
	case o.SoftSessionWatermark < 0:
		return 0
	}
	max := o.maxSessions()
	if max < 16 {
		// Tiny caps have no headroom worth reserving; shedding below
		// them would only reject traffic the hard cap still admits.
		return 0
	}
	return max - max/8
}

func (o ServerOptions) retryAfterHint() time.Duration {
	switch {
	case o.RetryAfterHint > 0:
		return o.RetryAfterHint
	case o.RetryAfterHint < 0:
		return 0
	}
	return DefaultRetryAfterHint
}

func (o ServerOptions) registryShards() int {
	if o.RegistryShards > 0 {
		return o.RegistryShards
	}
	return registry.DefaultShards
}

func (o ServerOptions) maxStreams() int {
	switch {
	case o.MaxStreams > 0:
		return o.MaxStreams
	case o.MaxStreams < 0:
		return 0
	}
	return DefaultMaxStreams
}

// ServerStats is a point-in-time snapshot of a Server's counters, fit for
// an expvar.Func or a metrics endpoint.
type ServerStats struct {
	Active    int64 // sessions currently reconciling
	Accepted  int64 // connections admitted past the capacity check (includes probes that never start a session)
	Completed int64 // sessions ended by the initiator's msgDone (a connection may complete several in sequence)
	Failed    int64 // sessions ended by an error, limit, or disconnect
	Rejected  int64 // connections turned away at the capacity check or during shutdown
	Shed      int64 // subset of Rejected turned away by the soft admission watermark
	BytesIn   int64 // wire bytes read across all sessions
	BytesOut  int64 // wire bytes written across all sessions
	Rounds    int64 // protocol rounds answered in completed sessions

	StreamsOpen           int64 // mux streams currently open across all connections
	StreamsTotal          int64 // mux streams ever opened
	BytesSavedCompression int64 // wire bytes saved by negotiated lz compression, both directions

	// Adaptive-controller counters over completed sessions. AdaptiveReplans
	// is the total number of rounds served under (m, t) parameters the
	// adaptive controller re-derived away from the static plan; PriorHits
	// counts fast hellos whose speculative round was answered in the
	// opening reply — i.e. syncs where the initiator's learned d̂ prior (or
	// an explicit KnownD) sized the speculation right and the session
	// completed its first round in a single round trip.
	AdaptiveReplans int64
	PriorHits       int64

	// Hosted-set registry counters. SetsHosted counts every registered set
	// (hosted or not); the rest cover the hosted layer: sets currently
	// resident in memory, their summed charge, elements paged in from the
	// segment store (cold loads), LRU evictions under MaxResidentBytes,
	// background segment-chain merges, and sessions or registrations
	// rejected on a tenant quota.
	SetsHosted      int64
	SetsResident    int64
	ResidentBytes   int64
	ColdLoads       int64
	Evictions       int64
	SegmentMerges   int64
	QuotaRejections int64

	// Distributions over completed sessions, recorded at the moment the
	// initiator's msgDone lands. LatencyUS is the wall-clock session
	// duration (admission to close) in microseconds; SessionRounds the
	// protocol rounds answered; SessionBytes the session's wire bytes in
	// both directions. Quantiles are histogram-interpolated (<= 12.5%
	// relative error); Max is exact.
	LatencyUS     HistogramSummary
	SessionRounds HistogramSummary
	SessionBytes  HistogramSummary
}

// HistogramSummary is the fixed quantile digest of one server histogram,
// JSON-friendly for the expvar endpoint.
type HistogramSummary struct {
	Count int64   // observations (completed sessions)
	Sum   int64   // sum of observed values
	Max   int64   // largest observation (exact)
	P50   float64 // median
	P95   float64
	P99   float64
}

func summarize(s hist.Snapshot) HistogramSummary {
	return HistogramSummary{
		Count: s.Count,
		Sum:   s.Sum,
		Max:   s.Max,
		P50:   s.Quantile(0.50),
		P95:   s.Quantile(0.95),
		P99:   s.Quantile(0.99),
	}
}

// setSource is a registry entry: something that can produce the immutable
// SharedSet view a new session reconciles against, plus the protocol
// options sessions against it run under. An immutable SharedSet is its own
// (constant) source; a mutable Set returns its current view, rebuilt
// lazily after mutations.
type setSource interface {
	sharedView() (*SharedSet, error)
	sessionOptions() Options
}

// setWithOptions overrides the session options of a registered Set — how
// Set.Serve applies per-call options to the sessions a server admits.
type setWithOptions struct {
	set *Set
	opt Options
}

func (sw setWithOptions) sharedView() (*SharedSet, error) { return sw.set.sharedView() }
func (sw setWithOptions) sessionOptions() Options         { return sw.opt }

// NewServer returns a Server with an empty set registry. Register at least
// one set (typically DefaultSetName) before calling Serve.
func NewServer(opt ServerOptions) *Server {
	s := &Server{
		opt:       opt,
		protoOpt:  opt.Protocol.withDefaults(),
		sets:      registry.New[setSource](opt.registryShards(), opt.TenantQuota.toRegistry()),
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]struct{}),
		drainCh:   make(chan struct{}),
	}
	// The hosted layer needs a valid estimator configuration; an invalid
	// one surfaces on the first Host/EnableHosting call, not here, so
	// NewServer keeps its no-error signature.
	s.hosted, s.hostedErr = newHostedStore(s.protoOpt, opt.MaxResidentBytes)
	return s
}

// SetTenantQuota overrides the default TenantQuota for one tenant. It may
// be called at any time; lowered quotas apply to new reservations only
// (existing sets and sessions are never revoked).
func (s *Server) SetTenantQuota(tenant string, q TenantQuota) {
	s.sets.SetQuota(tenant, q.toRegistry())
}

// TenantUsage reports a tenant's current registered sets, logical bytes,
// and active sessions.
func (s *Server) TenantUsage(tenant string) (sets, bytes, sessions int64) {
	return s.sets.TenantUsage(tenant)
}

// Register validates set once and publishes it under name. Re-registering
// a name swaps the snapshot atomically: sessions already in flight keep
// reconciling against the snapshot they started with, new sessions see the
// new one.
func (s *Server) Register(name string, set []uint64) error {
	ss, err := NewSharedSet(set, s.opt.Protocol)
	if err != nil {
		return err
	}
	return s.RegisterShared(name, ss)
}

// RegisterShared publishes an already prepared SharedSet under name.
// Sessions run under the shared set's own options, so those must agree
// with the server's protocol options on every field that parameterizes
// the exchange — a mismatch (e.g. a SharedSet built with a different
// seed) would produce baffling mid-protocol failures, so it is rejected
// here at registration time instead.
func (s *Server) RegisterShared(name string, ss *SharedSet) error {
	want := s.opt.Protocol.withDefaults()
	got := ss.opt
	switch {
	case got.Seed != want.Seed:
		return fmt.Errorf("pbs: shared set seed %#x does not match server seed %#x", got.Seed, want.Seed)
	case got.EstimatorSketches != want.EstimatorSketches:
		return fmt.Errorf("pbs: shared set sketch count %d does not match server %d", got.EstimatorSketches, want.EstimatorSketches)
	case got.Gamma != want.Gamma:
		return fmt.Errorf("pbs: shared set gamma %v does not match server %v", got.Gamma, want.Gamma)
	case got.Delta != want.Delta || got.TargetRounds != want.TargetRounds ||
		got.TargetSuccess != want.TargetSuccess || got.SigBits != want.SigBits:
		return fmt.Errorf("pbs: shared set plan parameters do not match the server's")
	case got.MaxD != want.MaxD:
		return fmt.Errorf("pbs: shared set MaxD %d does not match server MaxD %d", got.MaxD, want.MaxD)
	}
	return s.publish(name, ss, hostedElemBytes*int64(ss.Len()))
}

// RegisterSet publishes a live, mutable Set under name. Unlike Register
// and RegisterShared — which pin an immutable snapshot at registration
// time — sessions admitted after a mutation see the mutated set: each
// session takes the Set's current immutable view at admission (sessions
// already in flight keep the view they started with), and the view rebuild
// after a mutation is amortized across all sessions until the next one.
//
// Sessions against the set run under the Set's own options; those must
// agree with the server's protocol options on the structural fields
// (Seed, SigBits, EstimatorSketches) that bind the Set's cached snapshot
// and sketch.
func (s *Server) RegisterSet(name string, set *Set) error {
	if err := s.protoOpt.validate(); err != nil {
		return err
	}
	want := s.protoOpt
	got := set.cfg.opt
	switch {
	case got.Seed != want.Seed:
		return fmt.Errorf("pbs: set seed %#x does not match server seed %#x", got.Seed, want.Seed)
	case got.SigBits != want.SigBits:
		return fmt.Errorf("pbs: set sigBits %d does not match server sigBits %d", got.SigBits, want.SigBits)
	case got.EstimatorSketches != want.EstimatorSketches:
		return fmt.Errorf("pbs: set sketch count %d does not match server %d", got.EstimatorSketches, want.EstimatorSketches)
	}
	return s.publish(name, set, hostedElemBytes*int64(set.Len()))
}

// registerSource publishes a pre-checked source directly (Set.Serve's
// per-call option override path).
func (s *Server) registerSource(name string, src setSource, bytes int64) error {
	if err := src.sessionOptions().validate(); err != nil {
		return err
	}
	return s.publish(name, src, bytes)
}

// ErrServerClosed is returned by registration and hosting calls made after
// Close or Shutdown.
var ErrServerClosed = errors.New("pbs: server closed")

// publish inserts src into the sharded registry, charging bytes against
// the tenant's quota. The closed check rides the same lock Close takes, so
// a registration can never land after Shutdown observed a clean registry.
func (s *Server) publish(name string, src setSource, bytes int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrServerClosed
	}
	if err := s.sets.Register(name, src, bytes); err != nil {
		var qe *registry.QuotaError
		if errors.As(err, &qe) {
			s.quotaRejections.Add(1)
			return fmt.Errorf("%w: %v", ErrQuotaExceeded, err)
		}
		return err
	}
	return nil
}

// Unregister removes a named set from the registry, releasing its quota
// charge; it reports whether the name was registered. Sessions already
// reconciling against the set finish undisturbed. A hosted set's persisted
// segments stay on disk (recovered again by the next EnableHosting);
// removing those too is the store's Remove.
func (s *Server) Unregister(name string) bool {
	src, ok := s.sets.Unregister(name)
	if !ok {
		return false
	}
	if hs, isHosted := src.(*hostedSet); isHosted {
		s.hosted.forget(hs)
	}
	return true
}

// rejection is why startSession turned a session away: the client-facing
// diagnostic plus its structured code and retry-after hint.
type rejection struct {
	msg   string
	code  string
	retry time.Duration
}

// startSession resolves name and admits a new responder session. The
// shutdown check and the sessActive increment happen under one lock so
// Shutdown can never sample a clean drain while a session is
// half-admitted; the registry lookup takes only the name's shard read
// lock, and the view materialization (which may be O(|S|) right after a
// mutation of a registered Set, or a cold load for a hosted one) happens
// outside both. A rejection is counted here: transient ones (shutdown
// drain, session quota — conditions that clear on their own) as rejected,
// the rest as failed sessions. The returned session carries a release hook
// returning the tenant's session-quota slot; every sessActive decrement
// must pair with runRelease.
func (s *Server) startSession(name string) (*ResponderSession, *rejection) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.rejected.Add(1)
		return nil, &rejection{msg: "server shutting down", code: ErrCodeBusy, retry: s.opt.retryAfterHint()}
	}
	s.sessActive.Add(1)
	s.mu.Unlock()
	src, ok := s.sets.Get(name)
	if !ok {
		s.sessActive.Add(-1)
		s.failed.Add(1)
		return nil, &rejection{msg: fmt.Sprintf("unknown set %q", name), code: ErrCodeRejected}
	}
	if err := s.sets.BeginSession(name); err != nil {
		s.sessActive.Add(-1)
		s.quotaRejections.Add(1)
		s.rejected.Add(1)
		// Session quotas clear as the tenant's other sessions drain, so the
		// rejection is retryable with the standard hint.
		return nil, &rejection{msg: err.Error(), code: ErrCodeQuota, retry: s.opt.retryAfterHint()}
	}
	ss, err := src.sharedView()
	if err != nil {
		s.sets.EndSession(name)
		s.sessActive.Add(-1)
		s.failed.Add(1)
		return nil, &rejection{msg: err.Error(), code: ErrCodeRejected}
	}
	sess := ss.newServerSession(src.sessionOptions())
	sess.release = func() { s.sets.EndSession(name) }
	return sess, nil
}

// Stats returns a snapshot of the server counters and session histograms.
func (s *Server) Stats() ServerStats {
	st := ServerStats{
		SetsHosted:            int64(s.sets.Len()),
		QuotaRejections:       s.quotaRejections.Load(),
		Active:                s.sessActive.Load(),
		Accepted:              s.accepted.Load(),
		Completed:             s.completed.Load(),
		Failed:                s.failed.Load(),
		Rejected:              s.rejected.Load(),
		Shed:                  s.shed.Load(),
		BytesIn:               s.bytesIn.Load(),
		BytesOut:              s.bytesOut.Load(),
		Rounds:                s.rounds.Load(),
		StreamsOpen:           s.streamsOpen.Load(),
		StreamsTotal:          s.streamsTotal.Load(),
		BytesSavedCompression: s.bytesSaved.Load(),
		AdaptiveReplans:       s.adaptiveReplans.Load(),
		PriorHits:             s.priorHits.Load(),
		LatencyUS:             summarize(s.latencyHist.Snapshot()),
		SessionRounds:         summarize(s.roundsHist.Snapshot()),
		SessionBytes:          summarize(s.bytesHist.Snapshot()),
	}
	if s.hosted != nil {
		st.SetsResident = s.hosted.residentSets.Load()
		st.ResidentBytes = s.hosted.residentBytes.Load()
		st.ColdLoads = s.hosted.coldLoads.Load()
		st.Evictions = s.hosted.evictions.Load()
	}
	if s.store != nil {
		st.SegmentMerges = s.store.Merges()
	}
	return st
}

// Serve accepts connections on ln until the listener fails or the server
// is closed, spawning one frame pump per connection. It returns nil after
// Close.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("pbs: serve on a closed server")
	}
	s.listeners[ln] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, ln)
		s.mu.Unlock()
	}()
	var backoff time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed || errors.Is(err, net.ErrClosed) {
				return nil
			}
			// Transient accept failures (EMFILE under a connection flood,
			// ECONNABORTED) must not turn into a permanent outage: retry
			// with backoff, as net/http does. (Asserted structurally: the
			// net.Error method itself is deprecated as API guidance, but
			// remains exactly the accept-loop signal it was designed for.)
			if ne, ok := err.(interface{ Temporary() bool }); ok && ne.Temporary() {
				if backoff == 0 {
					backoff = 5 * time.Millisecond
				} else if backoff *= 2; backoff > time.Second {
					backoff = time.Second
				}
				// Wake immediately on Close/Shutdown: a plain Sleep here
				// would pin them for up to the full backoff.
				select {
				case <-time.After(backoff):
					continue
				case <-s.drainCh:
					return nil
				}
			}
			return err
		}
		backoff = 0
		setNoDelay(conn)
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// markClosed flips the server into its closing state and signals drainCh.
// The caller must hold s.mu.
func (s *Server) markClosed() {
	if !s.closed {
		s.closed = true
		close(s.drainCh)
	}
}

// Close stops accepting and tears down every open connection immediately,
// then flushes hosted sets' dirty state and closes the segment store. For
// a drain-first stop, use Shutdown.
func (s *Server) Close() error {
	s.mu.Lock()
	s.markClosed()
	for ln := range s.listeners {
		ln.Close()
	}
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	var err error
	s.closeHosted.Do(func() {
		if s.hosted != nil {
			err = s.hosted.flushAll()
		}
		if s.store != nil {
			s.store.Close()
		}
	})
	return err
}

// Shutdown stops accepting new connections, waits up to timeout for
// in-flight sessions to finish, then closes whatever remains. It reports
// whether the drain completed before the deadline.
func (s *Server) Shutdown(timeout time.Duration) bool {
	s.mu.Lock()
	s.markClosed()
	for ln := range s.listeners {
		ln.Close()
	}
	s.mu.Unlock()
	deadline := time.Now().Add(timeout)
	for s.sessActive.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	drained := s.sessActive.Load() == 0
	s.Close()
	return drained
}

// sendCodedError reports a failure to the client as a final msgError
// frame, on a short deadline so a stalled peer cannot pin the goroutine.
// The structured code and optional retry-after hint ride as the
// backward-compatible msgError suffix: current clients decode it into a
// *PeerError, legacy clients see (and log) it as part of the plain string.
// The connection usually still has unread frames from the client (e.g. the
// estimate of a just-rejected session); closing with those pending would
// RST the socket and can destroy the diagnostic before the client reads
// it, so the write side is half-closed and the inbound leftovers drained
// briefly first.
func (s *Server) sendCodedError(conn net.Conn, msg, code string, retryAfter time.Duration) {
	payload := appendErrCode(msg, code, retryAfter)
	conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
	if err := writeFrame(conn, msgError, []byte(payload)); err != nil {
		return
	}
	s.bytesOut.Add(int64(5 + len(payload)))
	if cw, ok := conn.(interface{ CloseWrite() error }); ok {
		cw.CloseWrite()
	}
	conn.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
	io.Copy(io.Discard, io.LimitReader(conn, maxFrame))
}

// serveConn runs one connection: the capacity checks, then the frame loop
// that drives every session the connection carries.
//
// A connection starts plain: every frame belongs to one implicit stream,
// whose session the first frame admits. After a completed session (the
// initiator's msgDone) the connection stays open and the next frame admits
// the next session under fresh budgets — how a warm client fleet amortizes
// the dial across many syncs. A hello reply that grants featureMux
// switches the same loop to enveloped frames: the live session continues
// as stream 1, and further streams open and close by envelope flags.
// Admission, budgets, the coalesced write, completion stats, the idle
// sweep, and teardown are one code path for both modes; only the framing,
// the pre-read frame limit, and what a failure does to the connection
// differ. Frame payloads are read into one pooled buffer per connection,
// reused across frames and sessions.
func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()

	cur := s.connCount.Add(1)
	defer s.connCount.Add(-1)
	if max := s.opt.maxSessions(); max > 0 && cur > max {
		// Hard exhaustion: hint a longer retry-after than a watermark shed
		// so the backed-off herd does not return while still saturated.
		s.rejected.Add(1)
		s.sendCodedError(conn, "server at session capacity", ErrCodeBusy, 2*s.opt.retryAfterHint())
		return
	}
	if soft := s.opt.softWatermark(); soft > 0 && cur > soft {
		// Soft admission watermark: shed new connections before the hard
		// cap so warm connections (which reuse their slot for session
		// after session) keep the remaining headroom.
		s.rejected.Add(1)
		s.shed.Add(1)
		s.sendCodedError(conn, "server over session watermark, retry later", ErrCodeBusy, s.opt.retryAfterHint())
		return
	}
	s.accepted.Add(1)

	buf := getPayloadBuf()
	defer putPayloadBuf(buf)
	c := &srvConn{
		s:       s,
		conn:    conn,
		idle:    s.opt.idleTimeout(),
		hint:    uint64(cur),
		streams: make(map[uint64]*srvStream, 1),
	}
	defer c.teardown()
	lastSweep := time.Now()
	for {
		if c.idle > 0 {
			if time.Since(lastSweep) >= c.idle/2 {
				lastSweep = time.Now()
				if !c.sweep() {
					return
				}
			}
			conn.SetReadDeadline(time.Now().Add(c.idle))
		}
		limit := c.frameLimit()
		typ, payload, err := readFrameInto(conn, limit, (*buf)[:0])
		if payload != nil {
			*buf = payload[:0]
		}
		if err != nil {
			// A frame a plain connection refused on its declared size gets
			// the diagnostic the client can act on. Transport errors do
			// not: a connection that ends between sessions — clean EOF,
			// reset, or idle-deadline expiry alike — is a probe, a
			// dial-and-abort, or a warm client hanging up after its last
			// sync, and teardown counts only sessions left mid-flight.
			var fle *frameLimitError
			if !c.mux && errors.As(err, &fle) {
				msg := err.Error()
				if limit < maxFrame {
					msg = "session byte budget exceeded"
				}
				c.fail(0, c.streams[0], msg)
			}
			return
		}
		if !c.serveFrame(typ, payload) {
			return
		}
	}
}

// srvConn is one connection's state in the server loop: its framing mode
// and its stream table. A plain connection's table holds at most the
// implicit stream 0; after the mux upgrade it holds every open stream by
// ID. Only streams with an admitted session are in the table.
type srvConn struct {
	s       *Server
	conn    net.Conn
	idle    time.Duration
	hint    uint64 // histogram stripe hint: the connection count at accept
	mux, lz bool   // envelopes (and lz compression inside them) granted
	streams map[uint64]*srvStream
}

// srvStream is the server-side state of one session: its engine plus the
// per-session budget and accounting state.
type srvStream struct {
	sess        *ResponderSession
	start       time.Time
	bytes       int64
	roundFrames int
	lastActive  time.Time // when the client's last frame was answered
}

// frameLimit is the largest frame the next read accepts. A plain
// connection refuses frames whose declared size alone would bust its
// session's remaining byte budget — before reading (or holding) any
// payload. A mux connection reads up to maxFrame and charges the frame to
// its stream afterwards, so one stream's oversized frame fails that stream
// alone instead of the connection its siblings share.
func (c *srvConn) frameLimit() uint32 {
	budget := c.s.opt.sessionByteBudget()
	if c.mux || budget <= 0 {
		return maxFrame
	}
	var spent int64
	if st := c.streams[0]; st != nil {
		spent = st.bytes
	}
	return uint32(min(max(budget-spent-5, 0), maxFrame))
}

// serveFrame routes one inbound frame to its stream's session, enforcing the
// per-session limits, and reports whether the connection lives on.
func (c *srvConn) serveFrame(typ byte, payload []byte) bool {
	s := c.s
	n := int64(5 + len(payload))
	s.bytesIn.Add(n)
	var id, flags uint64
	body := payload
	if c.mux {
		var err error
		id, flags, body, err = parseMuxPayload(payload)
		if err != nil || flags&^uint64(muxFlagKnown) != 0 {
			// A malformed envelope means framing trust is gone; there is no
			// stream to blame it on, so the connection dies.
			return false
		}
		if flags&muxFlagCompressed != 0 {
			if !c.lz {
				return false
			}
			decoded, err := lz.Decode(nil, body, maxFrame)
			if err != nil {
				return false
			}
			s.bytesSaved.Add(int64(len(decoded) - len(body)))
			body = decoded
		}
	}

	st := c.streams[id]
	opened := st == nil
	if opened {
		var ok bool
		if st, ok = c.open(id, flags, typ, body); st == nil {
			return ok
		}
	} else if flags&muxFlagOpen != 0 {
		return c.fail(id, st, fmt.Sprintf("duplicate open for stream %d", id))
	}
	st.bytes += n
	if budget := s.opt.sessionByteBudget(); budget > 0 && st.bytes > budget {
		return c.fail(id, st, "session byte budget exceeded")
	}
	switch typ {
	case msgStreamClose:
		if c.mux {
			// Client abandoned the stream mid-session (its msgDone rides
			// the close flag on the session's own goodbye instead).
			c.drop(id, st, st.sess.started() || st.bytes > n)
			return true
		}
	case msgHello:
		// A bare hello only ever opens a session, naming its set at
		// admission; one on a session already open is a violation.
		if !opened {
			return c.fail(id, st, "hello after session start")
		}
		return true
	case msgRound, msgHelloV1:
		// A fast hello carries a speculative round, so it spends the
		// round budget like any msgRound.
		st.roundFrames++
		if max := s.opt.sessionMaxRounds(); max > 0 && st.roundFrames > max {
			return c.fail(id, st, "session round budget exceeded")
		}
	}

	out, done, err := st.sess.Step(typ, body)
	if err != nil {
		return c.fail(id, st, err.Error())
	}
	if len(out) > 0 {
		wn, err := c.send(id, 0, out)
		if err != nil {
			// A partial frame poisons the framing for every stream.
			return false
		}
		st.bytes += wn
		if budget := s.opt.sessionByteBudget(); budget > 0 && st.bytes > budget {
			return c.fail(id, st, "session byte budget exceeded")
		}
	}
	if done {
		c.complete(id, st)
		return true
	}
	st.lastActive = time.Now()
	if g := st.sess.granted; g&featureMux != 0 && !c.mux {
		// The hello reply that granted mux just went out, and the
		// fast-path initiator sends nothing until it has read it — so the
		// very next inbound frame is already enveloped. The live session
		// continues as stream 1.
		c.mux, c.lz = true, g&featureLZ != 0
		delete(c.streams, id)
		c.streams[1] = st
		s.streamsOpen.Add(1)
		s.streamsTotal.Add(1)
	}
	return true
}

// open admits the session of a stream's first frame. On a plain
// connection any frame opens the implicit stream; on a mux connection only
// a frame carrying the open flag does, under the MaxStreams cap. A msgHello
// body or a msgHelloV1's set name picks the set, DefaultSetName otherwise.
// A nil stream means the frame was answered (or ignored) without a
// session; ok reports whether the connection lives on.
func (c *srvConn) open(id, flags uint64, typ byte, body []byte) (st *srvStream, ok bool) {
	s := c.s
	if c.mux {
		if flags&muxFlagOpen == 0 {
			if typ == msgStreamClose || flags&muxFlagClose != 0 {
				// Close for a stream already gone: a benign race between
				// the client's close and our teardown.
				return nil, true
			}
			s.rejected.Add(1)
			return nil, c.refuse(id, fmt.Sprintf("unknown stream %d", id), ErrCodeRejected, 0)
		}
		if len(c.streams) >= s.opt.maxStreams() {
			s.rejected.Add(1)
			s.shed.Add(1)
			return nil, c.refuse(id, "connection at stream capacity", ErrCodeBusy, s.opt.retryAfterHint())
		}
	}
	name := DefaultSetName
	switch typ {
	case msgHello:
		name = string(body)
	case msgHelloV1:
		hn, err := fastHelloSetName(body)
		if err != nil {
			return nil, c.fail(id, nil, err.Error())
		}
		if hn != "" {
			name = hn
		}
	}
	sess, rej := s.startSession(name)
	if sess == nil {
		return nil, c.refuse(id, rej.msg, rej.code, rej.retry)
	}
	if c.mux {
		s.streamsOpen.Add(1)
		s.streamsTotal.Add(1)
	} else if s.opt.maxStreams() > 0 {
		// Only a session on a still-plain connection may negotiate the
		// mux upgrade (plus compression): no mux inside mux.
		sess.allowFeatures = featureMux | featureLZ
	}
	now := time.Now()
	st = &srvStream{sess: sess, start: now, lastActive: now}
	c.streams[id] = st
	return st, true
}

// complete retires a stream its initiator closed with msgDone. Only a
// session that actually started reconciling (answered an estimate) counts
// as completed; a probe that sends a bare msgDone must not inflate the
// success counter.
func (c *srvConn) complete(id uint64, st *srvStream) {
	s, sess := c.s, st.sess
	if sess.started() {
		s.completed.Add(1)
		s.rounds.Add(int64(sess.Rounds()))
		s.adaptiveReplans.Add(int64(sess.adaptiveReplans()))
		if sess.specAccepted {
			s.priorHits.Add(1)
		}
		s.latencyHist.Record(c.hint, time.Since(st.start).Microseconds())
		s.roundsHist.Record(c.hint, int64(sess.Rounds()))
		s.bytesHist.Record(c.hint, st.bytes)
	}
	c.drop(id, st, false)
}

// drop retires stream id, running its session's release hook and
// returning its sessActive slot; failed says whether it counts as a failed
// session (vs. completed or a never-started probe).
func (c *srvConn) drop(id uint64, st *srvStream, failed bool) {
	if failed {
		c.s.failed.Add(1)
	}
	st.sess.runRelease()
	c.s.sessActive.Add(-1)
	if c.mux {
		c.s.streamsOpen.Add(-1)
	}
	delete(c.streams, id)
}

// fail ends stream id with a coded protocol error, counted as a failed
// session (st is nil when the frame never got one), and reports whether
// the connection lives on.
func (c *srvConn) fail(id uint64, st *srvStream, msg string) bool {
	c.s.failed.Add(1)
	if st != nil {
		c.drop(id, st, false)
	}
	return c.refuse(id, msg, ErrCodeRejected, 0)
}

// refuse reports a failure on stream id as a coded msgError. On a plain
// connection it is the final frame and the connection closes (see
// sendCodedError); on a mux connection it goes out enveloped with the
// close flag, and the connection and every sibling stream carry on. It
// reports whether the connection lives on.
func (c *srvConn) refuse(id uint64, msg, code string, retryAfter time.Duration) bool {
	if !c.mux {
		c.s.sendCodedError(c.conn, msg, code, retryAfter)
		return false
	}
	payload := appendErrCode(msg, code, retryAfter)
	_, err := c.send(id, muxFlagClose, []Frame{{msgError, []byte(payload)}})
	return err == nil
}

// send writes one batch of frames for stream id in one coalesced write
// under the idle write deadline — a client that stops reading must not pin
// this goroutine (and its session slots) in a blocked send — and returns
// the wire bytes written. A mux connection envelopes every frame with
// flags, lz-compressing bodies where that was granted and pays; streams
// are served strictly in frame-arrival order, so one write per inbound
// frame round-robins the connection fairly.
func (c *srvConn) send(id, flags uint64, out []Frame) (int64, error) {
	if c.idle > 0 {
		c.conn.SetWriteDeadline(time.Now().Add(c.idle))
	}
	var n int64
	var err error
	if !c.mux {
		err = writeFrames(c.conn, out)
		for _, f := range out {
			n += int64(5 + len(f.Payload))
		}
	} else {
		batch := getPayloadBuf()
		b := (*batch)[:0]
		for _, f := range out {
			body, compressed := muxCompressBody(f.Payload, c.lz)
			fl := flags
			if compressed {
				fl |= muxFlagCompressed
				c.s.bytesSaved.Add(int64(len(f.Payload) - len(body)))
			}
			b = muxAppendFrame(b, id, fl, f.Type, body)
		}
		_, err = c.conn.Write(b)
		n = int64(len(b))
		*batch = b[:0]
		putPayloadBuf(batch)
	}
	if err != nil {
		return 0, err
	}
	c.s.bytesOut.Add(n)
	return n, nil
}

// sweep times out every stream whose client has sent nothing for the idle
// timeout. The connection's read deadline only fires when every stream is
// silent, so a mux stream that went quiet while its siblings stay busy is
// caught here; the loop sweeps before each read, so no frame path can skip
// it. (A plain connection's one stream always hits the read deadline
// first.) Every stream in the table has its opening frame charged, so a
// swept stream counts as failed. sweep reports whether the connection
// lives on.
func (c *srvConn) sweep() bool {
	for id, st := range c.streams {
		if time.Since(st.lastActive) > c.idle {
			c.drop(id, st, true)
			if !c.refuse(id, "stream idle timeout", ErrCodeRejected, 0) {
				return false
			}
		}
	}
	return true
}

// teardown retires every stream still open when the connection ends: each
// was mid-session, so each counts as failed. The clean case (every session
// completed or closed first) has an empty table and counts nothing.
func (c *srvConn) teardown() {
	for id, st := range c.streams {
		c.drop(id, st, true)
	}
}
