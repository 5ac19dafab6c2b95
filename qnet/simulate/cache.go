// Result caching for the sweep engine.
//
// Every run of the simulator is a pure function of its fully-resolved
// configuration (device parameters, grid, layout, resources, purifier
// depth, code level, hop geometry, failure rate, seed) and its program.
// That makes results content-addressable: a deterministic hash of those
// inputs is a complete identity for the run's Result, so repeated
// figure generation — where only one dimension of a parameter space
// changed — can reuse every unchanged point instead of re-simulating
// it.  See docs/ARCHITECTURE.md ("Caching") for the full key semantics.

package simulate

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"repro/internal/netsim"

	"repro/qnet"
	"repro/qnet/route"
)

// Key is the content address of one simulation run: a SHA-256 digest of
// the fully-resolved run point.  Two runs with equal keys are guaranteed
// to produce identical Results, so a Key is safe to use as a cache
// identity across processes, hosts and repository versions that share
// the same keyVersion.
type Key [sha256.Size]byte

// String renders the key as lowercase hex (the on-disk file stem).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// keyVersion is bumped whenever the canonical serialization below — or
// the simulator's observable behaviour — changes, invalidating every
// previously stored result.  v2: the routing policy joined the key (and
// Result gained the Turns counter).  v3: the fault spec joined the key
// (dead-link fraction, drop rate, degraded regions) and Result gained
// the DroppedBatches/DeadLinks counters; distinct fault patterns must
// never collide on one key.
const keyVersion = "qnet-result-v3"

// A key is the SHA-256 of one canonical byte stream: the run point's
// device (appendDevice) and the rest of its configuration
// (appendConfig), then its program's fingerprint (appendProgram).
// Every integer is 8 bytes little-endian, and every string and float is
// length-prefixed, so field boundaries cannot alias ("ab"+"c" vs
// "a"+"bc").  The stream is built in one buffer and hashed with one
// call, so SHA-256 reads whole blocks straight from it.

// appendInt appends a signed integer to the stream.
func appendInt(b []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(v))
}

// appendString appends a length-prefixed string to the stream.
func appendString(b []byte, s string) []byte {
	return append(appendInt(b, int64(len(s))), s...)
}

// appendFloat appends a float64 bit-exactly, as its length-prefixed
// 'x' format: the length is written once the format is in place.
func appendFloat(b []byte, v float64) []byte {
	n := len(b)
	b = strconv.AppendFloat(appendInt(b, 0), v, 'x', -1, 64)
	binary.LittleEndian.PutUint64(b[n:], uint64(len(b)-n-8))
	return b
}

// configBytes is room for a configuration's part of the stream, device
// included: about 400 bytes with a short routing name and no fault
// regions, each region adding 64.  A longer configuration only grows
// the buffer.
const configBytes = 512

// appendDevice appends the leading part of a configuration's stream:
// the key version and every device constant of the paper's Tables 1-2.
// No point of a Space sets these, so Space.Expand formats them once and
// copies them in front of each point's appendConfig.
func appendDevice(b []byte, p qnet.Params) []byte {
	b = appendString(b, keyVersion)

	// Device constants, Table 1 then Table 2.
	b = appendInt(b, int64(p.Times.OneQubitGate))
	b = appendInt(b, int64(p.Times.TwoQubitGate))
	b = appendInt(b, int64(p.Times.MoveCell))
	b = appendInt(b, int64(p.Times.Measure))
	b = appendInt(b, int64(p.Times.ClassicalBitPerCell))
	b = appendFloat(b, p.Errors.OneQubitGate)
	b = appendFloat(b, p.Errors.TwoQubitGate)
	b = appendFloat(b, p.Errors.MoveCell)
	return appendFloat(b, p.Errors.Measure)
}

// appendConfig appends the rest of the configuration's part of a key's
// stream, after appendDevice's.  It covers, in a fixed field order
// (never a Go map, so it is independent of map iteration order): the
// grid dimensions, the layout, the routing policy (by canonical name),
// the per-node resource counts, purifier depth, code level, hop and
// turn geometry, the failure rate, the fault spec and the effective
// seed.
//
// When the failure rate is zero and the fault spec is empty the
// simulation never consults its RNG, so the seed cannot influence the
// result; the seed is canonicalized to 0 in that case, letting
// multi-seed sweeps of a deterministic configuration collapse to a
// single simulation plus cache hits.
func appendConfig(b []byte, cfg netsim.Config) []byte {
	// Machine shape.  The routing policy is hashed by its canonical
	// name (nil canonicalizes to "xy", which routes identically), so
	// two machines differing only in policy never share a key.
	b = appendInt(b, int64(cfg.Grid.Width))
	b = appendInt(b, int64(cfg.Grid.Height))
	b = appendInt(b, int64(cfg.Layout))
	b = appendString(b, route.NameOf(cfg.Route))
	b = appendInt(b, int64(cfg.Teleporters))
	b = appendInt(b, int64(cfg.Generators))
	b = appendInt(b, int64(cfg.Purifiers))
	b = appendInt(b, int64(cfg.PurifyDepth))
	b = appendInt(b, int64(cfg.CodeLevel))
	b = appendInt(b, int64(cfg.HopCells))
	b = appendInt(b, int64(cfg.TurnCells))
	b = appendFloat(b, cfg.PurifyFailureRate)

	// Fault spec, field by field in declaration order (regions length-
	// prefixed): two machines differing in any fault knob never share a
	// key.
	b = appendFloat(b, cfg.Faults.DeadLinks)
	b = appendFloat(b, cfg.Faults.Drop)
	b = appendInt(b, int64(len(cfg.Faults.Regions)))
	for _, r := range cfg.Faults.Regions {
		b = appendInt(b, int64(r.X))
		b = appendInt(b, int64(r.Y))
		b = appendInt(b, int64(r.W))
		b = appendInt(b, int64(r.H))
		b = appendFloat(b, r.Drop)
	}

	// The seed matters only when the RNG can be consulted: failure
	// injection and the fault model are its only consumers, so with
	// both off the seed cannot influence the result.
	seed := cfg.Seed
	if cfg.PurifyFailureRate == 0 && cfg.Faults.Empty() {
		seed = 0
	}

	// Config.Trace is deliberately NOT hashed: a tracer observes
	// the run through the engine's probe hook without scheduling events,
	// so a traced run's Result is byte-identical to an untraced one —
	// the tracer is an observer, not part of the model.  (A traced Run
	// bypasses cache lookup so the tracer sees a real simulation, but
	// stores its result under the same key an untraced run would.)
	return appendInt(b, seed)
}

// fingerprintBytes is the length of prog's fingerprint.
func fingerprintBytes(prog qnet.Program) int {
	return 3*8 + len(prog.Name) + 2*8*len(prog.Ops)
}

// appendProgram appends prog's fingerprint, the last part of a key's
// stream: its name, qubit count, op count and every op's A and B.
func appendProgram(b []byte, prog qnet.Program) []byte {
	b = appendString(b, prog.Name)
	b = appendInt(b, int64(prog.Qubits))
	b = appendInt(b, int64(len(prog.Ops)))
	for _, op := range prog.Ops {
		b = appendInt(b, int64(op.A))
		b = appendInt(b, int64(op.B))
	}
	return b
}

// keyFor computes the content address of running prog on a machine with
// the given fully-resolved configuration, in one allocation: the
// buffer that holds the stream.
func keyFor(cfg netsim.Config, prog qnet.Program) Key {
	b := make([]byte, 0, configBytes+fingerprintBytes(prog))
	return sha256.Sum256(appendProgram(appendConfig(appendDevice(b, cfg.Params), cfg), prog))
}

// fingerprint is one program's fingerprint, serialized on first use
// and then shared by every point of an expansion that runs the
// program, so a sweep's keys differ only in their configurations'
// bytes.
type fingerprint struct {
	once sync.Once
	b    []byte
}

// key returns the same Key as keyFor(cfg, prog), where prog is the
// program f fingerprints and device is appendDevice's part for
// cfg.Params.  The stream is built in buf, sized once to hold it whole,
// and buf is returned for the caller's next key.
func (f *fingerprint) key(buf, device []byte, cfg netsim.Config, prog qnet.Program) (Key, []byte) {
	f.once.Do(func() {
		f.b = appendProgram(make([]byte, 0, fingerprintBytes(prog)), prog)
	})
	if need := configBytes + len(f.b); cap(buf) < need {
		buf = make([]byte, 0, need)
	}
	buf = append(appendConfig(append(buf[:0], device...), cfg), f.b...)
	return sha256.Sum256(buf), buf
}

// CacheKey returns the content address of running prog on this machine:
// the deterministic hash under which a Cache stores the run's Result.
// Machines with equal configurations yield equal keys for equal
// programs, across processes and map orderings.
func (m *Machine) CacheKey(prog qnet.Program) Key { return keyFor(m.cfg, prog) }

// DefaultCacheEntries is the in-memory LRU capacity used when NewCache
// or NewDiskCache is given a non-positive capacity.
const DefaultCacheEntries = 4096

// CacheStats are a cache's monotonically increasing hit/miss counters
// plus its current occupancy.  Hits counts every Get served (from
// memory or disk); DiskHits is the subset that had to be read from the
// on-disk store; WriteErrors counts best-effort disk writes that
// failed; CorruptEntries counts on-disk entries that were present but
// unparseable (each one silently degraded into a miss — nonzero means
// the store is rotting, which matters once many hosts share it).
type CacheStats struct {
	Hits           uint64
	DiskHits       uint64
	Misses         uint64
	WriteErrors    uint64
	CorruptEntries uint64
	Entries        int
}

// HitRate returns Hits / (Hits + Misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// String renders the counters compactly ("17 hits (3 disk), 5 misses,
// 77.3% hit rate"), flagging corrupt entries when any were seen.
func (s CacheStats) String() string {
	out := fmt.Sprintf("%d hits (%d disk), %d misses, %.1f%% hit rate",
		s.Hits, s.DiskHits, s.Misses, 100*s.HitRate())
	if s.CorruptEntries > 0 {
		out += fmt.Sprintf(", %d corrupt", s.CorruptEntries)
	}
	return out
}

// Cache is a content-addressed store of simulation Results: an
// in-memory LRU optionally backed by an on-disk JSON store that
// persists results across processes.  A Cache is safe for concurrent
// use; Sweep and Stream consult it from every worker goroutine when
// installed with WithCache.
type Cache struct {
	mu      sync.Mutex
	cap     int
	dir     string
	order   *list.List // front = most recently used
	entries map[Key]*list.Element
	stats   CacheStats
}

// cacheEntry is one LRU slot.
type cacheEntry struct {
	key Key
	res Result
}

// NewCache builds an in-memory result cache holding up to capacity
// entries (DefaultCacheEntries when capacity is not positive).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheEntries
	}
	return &Cache{
		cap:     capacity,
		order:   list.New(),
		entries: make(map[Key]*list.Element),
	}
}

// NewDiskCache builds a result cache backed by dir: every Put is also
// written to dir/<key>.json, and a Get that misses in memory falls back
// to the directory, so results persist across processes.  The directory
// is created if missing.  Unreadable or corrupt files are treated as
// misses, never errors.
func NewDiskCache(dir string, capacity int) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("simulate: cache dir: %w", err)
	}
	c := NewCache(capacity)
	c.dir = dir
	return c, nil
}

// Dir returns the on-disk store's directory, or "" for a purely
// in-memory cache.
func (c *Cache) Dir() string { return c.dir }

// path returns the on-disk file for a key.
func (c *Cache) path(k Key) string { return filepath.Join(c.dir, k.String()+".json") }

// Get returns the cached Result for the key, consulting memory first
// and then the on-disk store (promoting disk hits into memory).
func (c *Cache) Get(k Key) (Result, bool) {
	c.mu.Lock()
	if el, ok := c.entries[k]; ok {
		c.order.MoveToFront(el)
		c.stats.Hits++
		res := el.Value.(*cacheEntry).res
		c.mu.Unlock()
		return res, true
	}
	c.mu.Unlock()
	// Disk fallback outside the lock, so one worker's file read never
	// stalls the others' memory lookups.
	if c.dir != "" {
		if res, ok := c.readDisk(k); ok {
			c.mu.Lock()
			c.stats.Hits++
			c.stats.DiskHits++
			if _, ok := c.entries[k]; !ok {
				c.insert(k, res)
			}
			c.mu.Unlock()
			return res, true
		}
	}
	c.mu.Lock()
	c.stats.Misses++
	c.mu.Unlock()
	return Result{}, false
}

// Put stores the Result for the key in memory and, for a disk-backed
// cache, on disk.  Disk write failures are recorded in
// CacheStats.WriteErrors but never fail the simulation.
func (c *Cache) Put(k Key, res Result) {
	c.mu.Lock()
	if el, ok := c.entries[k]; ok {
		el.Value.(*cacheEntry).res = res
		c.order.MoveToFront(el)
	} else {
		c.insert(k, res)
	}
	c.mu.Unlock()
	// The write happens outside the lock: the temp-file rename is
	// atomic, so concurrent writers of one key each leave a complete
	// file and the last rename wins.
	if c.dir != "" {
		if err := c.writeDisk(k, res); err != nil {
			c.mu.Lock()
			c.stats.WriteErrors++
			c.mu.Unlock()
		}
	}
}

// insert adds a new entry, evicting the least recently used one when
// over capacity.  Callers hold c.mu.
func (c *Cache) insert(k Key, res Result) {
	c.entries[k] = c.order.PushFront(&cacheEntry{key: k, res: res})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
	}
}

// readDisk loads one key from the on-disk store.  Callers need not hold
// c.mu; the corrupt-entry counter takes it internally.
func (c *Cache) readDisk(k Key) (Result, bool) {
	data, err := os.ReadFile(c.path(k))
	if err != nil {
		return Result{}, false
	}
	var res Result
	if err := json.Unmarshal(data, &res); err != nil {
		// The entry exists but cannot be parsed: still a miss (the
		// point just re-simulates), but a counted one, so operators of
		// long-lived shared stores can tell rot from cold.
		c.mu.Lock()
		c.stats.CorruptEntries++
		c.mu.Unlock()
		return Result{}, false
	}
	return res, true
}

// writeDisk stores one key in the on-disk store via a same-directory
// rename, so concurrent writers of the same key leave a complete file.
// It touches no mutable cache state, so callers need not hold c.mu.
func (c *Cache) writeDisk(k Key, res Result) error {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(c.dir, "put-*.tmp")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), c.path(k)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// Stats returns a snapshot of the cache's counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.order.Len()
	return s
}

// Len returns the number of entries currently held in memory.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
