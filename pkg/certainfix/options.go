package certainfix

// Option configures a System at construction. Options are applied in the
// order given to New, later ones overriding earlier ones.
//
//	sys, err := certainfix.New(rules, masterRel,
//	    certainfix.WithMasterHistory(64),
//	    certainfix.WithMaxRounds(4))
type Option func(*config)

// config is the accumulated construction-time configuration; each field
// is documented on the With… option that sets it.
type config struct {
	maxRounds       int
	history         int
	walDir          string
	fsync           FsyncPolicy
	checkpointEvery int
	auth            bool
	tokenKey        []byte
	leader          string // set by NewFollower only: the leader's base URL
}

func newConfig(opts []Option) config {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// WithMaxRounds caps user-interaction rounds per tuple (n <= 0 restores
// the default, arity + 1). The cap belongs to the System, not to the
// session token: a session resumed here runs under this cap wherever it
// began.
func WithMaxRounds(n int) Option {
	return func(c *config) { c.maxRounds = n }
}

// WithTokenKey sets the secret that session tokens are sealed and
// verified under (HMAC-SHA256). It is a deployment credential: every
// System that must resume another's tokens — the replicas behind one
// load balancer, a leader and its followers, a process and its restart —
// is given the same key. Without it the System draws a random key at
// construction, so its tokens resume only on itself and die with it.
func WithTokenKey(key []byte) Option {
	return func(c *config) { c.tokenKey = append([]byte(nil), key...) }
}

// WithMasterHistory bounds the master snapshot ring to n epochs
// including the head (n <= 0 restores master.DefaultHistory; the head is
// always retained). Larger rings let sessions stay suspended across more
// UpdateMaster publishes before resume falls back to ErrEpochEvicted /
// RebaseToHead; retained snapshots share storage copy-on-write, so the
// cost per epoch is the delta overlays, not a copy of Dm.
func WithMasterHistory(n int) Option {
	return func(c *config) { c.history = n }
}

// WithWAL makes the master lineage durable, rooted at dir. Every
// UpdateMaster is appended to a segmented, CRC-framed write-ahead log
// before the new snapshot is published; every few deltas the head is
// checkpointed as an arena image and the covered log truncated; and when
// dir already holds state, New/NewFromArena recover from it — checkpoint
// plus log tail — instead of building from the given master relation,
// continuing the epoch lineage exactly where the previous process (clean
// shutdown or crash) left it. A torn log tail from a crash is repaired
// silently; real corruption fails construction with ErrWALCorrupt or
// ErrBadSnapshot. Call System.Close to flush the log on shutdown.
func WithWAL(dir string) Option {
	return func(c *config) { c.walDir = dir }
}

// WithFsync selects the WAL durability/latency trade (only meaningful
// with WithWAL): FsyncAlways syncs per UpdateMaster, FsyncInterval syncs
// on a background timer, FsyncOff leaves flushing to the OS.
func WithFsync(p FsyncPolicy) Option {
	return func(c *config) { c.fsync = p }
}

// WithCheckpointEvery sets how many deltas accumulate between automatic
// arena checkpoints under WithWAL (n == 0 restores the default; n < 0
// disables automatic checkpoints — the log then grows until
// System.Close or an explicit save).
func WithCheckpointEvery(n int) Option {
	return func(c *config) { c.checkpointEvery = n }
}

// WithAuth turns on authenticated master epochs: the system maintains a
// sparse-Merkle commitment over Dm's tuple multiset, incrementally across
// UpdateMaster. The root is a pure function of the master contents —
// identical across shard counts, delta orderings and processes — and it
// travels with the lineage: MasterRoot exposes it, arena checkpoints
// persist it (verified on load), WAL records carry the root each delta
// produces (verified on recovery), and a follower compares its own root
// against the leader's after every shipped epoch. Fix results gain
// per-attribute provenance with inclusion proofs; VerifyFix checks them
// against a published root with no access to the master data at all.
// Costs one tree build at New and O(delta·log|Dm|) hashing per
// UpdateMaster; off by default.
func WithAuth() Option {
	return func(c *config) { c.auth = true }
}

// WithShards once set the number of shards the master's indexes were
// partitioned into.
//
// Deprecated: WithShards is a no-op. A master built here takes one index
// shard per 32k tuples, and an arena image or a WAL checkpoint keeps the
// shard count it was saved with.
func WithShards(p int) Option {
	return func(*config) {}
}
