package certainfix

// Option configures a System at construction. Options are applied in the
// order given to New, later ones overriding earlier ones.
//
//	sys, err := certainfix.New(rules, masterRel,
//	    certainfix.WithMasterHistory(64),
//	    certainfix.WithAuth())
type Option func(*config)

// config is the accumulated construction-time configuration; each field
// is documented on the With… option that sets it.
type config struct {
	history  int
	walDir   string
	auth     bool
	tokenKey []byte
	leader   string // set by NewFollower only: the leader's base URL
}

func newConfig(opts []Option) config {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
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
// UpdateMaster is appended to a segmented, CRC-framed write-ahead log and
// fsynced before it returns and before the new snapshot is published or
// shipped to a follower, so an acknowledged update survives a crash;
// every 256 deltas the head is checkpointed in the background as an
// arena image and the covered log truncated — the base of a first open
// too, which the first UpdateMaster waits for; and when
// dir already holds state, New/NewFromArena recover from it — checkpoint
// plus log tail — instead of building from the given master relation,
// continuing the epoch lineage exactly where the previous process (clean
// shutdown or crash) left it. A torn log tail from a crash is repaired
// silently; real corruption fails construction with ErrWALCorrupt or
// ErrBadSnapshot. Call System.Close to flush the log on shutdown.
func WithWAL(dir string) Option {
	return func(c *config) { c.walDir = dir }
}

// WithFsync once selected the WAL's fsync policy.
//
// Deprecated: WithFsync is a no-op. A System built WithWAL fsyncs every
// UpdateMaster before acknowledging it.
func WithFsync(p FsyncPolicy) Option {
	return func(*config) {}
}

// WithCheckpointEvery once set how many deltas accumulate between
// automatic arena checkpoints.
//
// Deprecated: WithCheckpointEvery is a no-op. A System built WithWAL
// checkpoints every 256 deltas; call System.Checkpoint to take one sooner.
func WithCheckpointEvery(n int) Option {
	return func(*config) {}
}

// WithAuth turns on authenticated master epochs for a memory-only
// System: it maintains a sparse-Merkle commitment over Dm's tuple
// multiset, incrementally across UpdateMaster. The root is a pure function
// of the master contents — identical across shard counts, delta orderings
// and processes. MasterRoot exposes it, fix results gain per-attribute
// provenance with inclusion proofs, and VerifyFix checks them against a
// published root with no access to the master data at all. Costs one tree
// build at New and O(delta·log|Dm|) hashing per UpdateMaster. A System
// built WithWAL or by NewFollower is always authenticated — its WAL
// records and checkpoints carry the roots recovery and followers check —
// so there the option changes nothing.
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
