// Package object implements the Tiera/Wiera data model (paper Secs 2.2 and
// 3.2.1): immutable, uninterpreted byte objects addressed by a globally
// unique key, carrying metadata attributes (size, access frequency, dirty
// bit, timestamps, tier location) and application-defined tags. Wiera
// extends the model with multiple versions per object; a modification
// creates a new version, and replicas converge under last-writer-wins.
package object

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Version numbers an object's revisions, starting at 1.
type Version int64

// Meta is the per-version metadata the paper stores in BerkeleyDB: version
// number, create time, access count, last modified and last accessed times,
// plus the Tiera attributes (size, dirty bit, tier location).
type Meta struct {
	Key        string
	Version    Version
	Size       int64
	Dirty      bool
	TierName   string // which storage tier currently holds the bytes
	Origin     string // instance that created this version (conflict diagnostics)
	CreatedAt  time.Time
	ModifiedAt time.Time
	AccessedAt time.Time
	AccessCnt  int64
	Tags       []string
	// Compressed and Encrypted mark payload transformations applied by the
	// policy's compress/encrypt responses (paper Sec 2.1); reads reverse
	// them transparently. When both are set, compression was applied first.
	Compressed bool
	Encrypted  bool
	// Erasure-coding layout. ECK/ECM record the Reed-Solomon scheme the
	// version was written under (0/0 = fully replicated); ECFrags lists the
	// fragment indexes whose bytes this replica's stored payload holds,
	// concatenated in ascending index order. Size stays the full logical
	// object size, so the physical bytes here are
	// len(ECFrags) * ceil(Size/ECK). Replicas of an EC version differ only
	// in ECFrags; the LWW tuple (Version, ModifiedAt, Origin) is identical
	// across all fragment holders, so anti-entropy sees no false conflicts.
	ECK     int
	ECM     int
	ECFrags []int
}

// HasTag reports whether the version carries tag.
func (m *Meta) HasTag(tag string) bool {
	for _, t := range m.Tags {
		if t == tag {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of the metadata.
func (m *Meta) Clone() Meta {
	c := *m
	c.Tags = append([]string(nil), m.Tags...)
	c.ECFrags = append([]int(nil), m.ECFrags...)
	return c
}

// IsEC reports whether the version was stored erasure-coded.
func (m *Meta) IsEC() bool { return m.ECK > 0 }

// FragSize is the per-fragment byte size of an EC version (0 for
// replicated versions): the k-way split of Size, rounded up.
func (m *Meta) FragSize() int64 {
	if m.ECK <= 0 || m.Size <= 0 {
		return 0
	}
	return (m.Size + int64(m.ECK) - 1) / int64(m.ECK)
}

// StoredBytes is the physical payload size this replica holds for the
// version: the full Size for replicated objects, the fragment-bundle
// size for EC objects. Capacity accounting and byte-transfer metrics
// must use this, not Size, or EC storage savings vanish on paper.
func (m *Meta) StoredBytes() int64 {
	if !m.IsEC() {
		return m.Size
	}
	return int64(len(m.ECFrags)) * m.FragSize()
}

// Newer reports whether version a should win over b under the paper's
// last-write-wins rule (Sec 4.2): a higher version number wins; equal
// versions are broken by the later modification time; remaining ties break
// deterministically on origin so all replicas converge identically.
func Newer(a, b Meta) bool {
	if a.Version != b.Version {
		return a.Version > b.Version
	}
	if !a.ModifiedAt.Equal(b.ModifiedAt) {
		return a.ModifiedAt.After(b.ModifiedAt)
	}
	return a.Origin > b.Origin
}

// VersionedObject is the full record for one key: every retained version's
// metadata. The object payload bytes themselves live in storage tiers; this
// structure tracks which versions exist and their attributes.
//
// latest always points at the entry of versions with the highest version
// number (nil when there is none). set and remove are the only writers of
// versions, so every put, get and freshness check reads the newest version
// as a field instead of scanning the key's history.
type VersionedObject struct {
	Key      string
	versions map[Version]*Meta
	latest   *Meta
}

// NewVersionedObject returns an empty record for key.
func NewVersionedObject(key string) *VersionedObject {
	return &VersionedObject{Key: key, versions: make(map[Version]*Meta)}
}

// Latest returns the metadata of the highest version, or nil if none.
func (v *VersionedObject) Latest() *Meta { return v.latest }

// set installs m under its version number, replacing any entry there.
func (v *VersionedObject) set(m *Meta) {
	v.versions[m.Version] = m
	if v.latest == nil || m.Version >= v.latest.Version {
		v.latest = m
	}
}

// remove deletes version ver. Only removing the highest version costs a
// scan of the remaining ones.
func (v *VersionedObject) remove(ver Version) {
	delete(v.versions, ver)
	if v.latest == nil || v.latest.Version != ver {
		return
	}
	v.latest = nil
	for _, m := range v.versions {
		if v.latest == nil || m.Version > v.latest.Version {
			v.latest = m
		}
	}
}

// VersionList returns all version numbers in ascending order.
func (v *VersionedObject) VersionList() []Version {
	out := make([]Version, 0, len(v.versions))
	for ver := range v.versions {
		out = append(out, ver)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Store is an in-memory, concurrency-safe version index for one Tiera
// instance. It implements the object versioning API of Table 2 at the
// metadata level; payloads are stored in tiers keyed by VersionKey.
type Store struct {
	mu      sync.RWMutex
	objects map[string]*VersionedObject
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{objects: make(map[string]*VersionedObject)}
}

// ErrNotFound reports a missing key or version.
type ErrNotFound struct {
	Key     string
	Version Version // 0 means "any version"
}

// Error implements error.
func (e ErrNotFound) Error() string {
	if e.Version == 0 {
		return fmt.Sprintf("object: key %q not found", e.Key)
	}
	return fmt.Sprintf("object: key %q version %d not found", e.Key, e.Version)
}

// Put records a new version of key and returns its metadata. The version
// number assigned is one past the current latest (or 1). now is the clock
// time of the write; origin names the writing instance.
func (s *Store) Put(key string, size int64, tier, origin string, tags []string, now time.Time) Meta {
	s.mu.Lock()
	defer s.mu.Unlock()
	vo := s.objects[key]
	if vo == nil {
		vo = NewVersionedObject(key)
		s.objects[key] = vo
	}
	next := Version(1)
	if l := vo.Latest(); l != nil {
		next = l.Version + 1
	}
	m := &Meta{
		Key: key, Version: next, Size: size, TierName: tier, Origin: origin,
		CreatedAt: now, ModifiedAt: now, AccessedAt: now,
		Tags: append([]string(nil), tags...),
	}
	vo.set(m)
	return m.Clone()
}

// Apply installs a replica-propagated version verbatim if it wins under
// last-writer-wins against the local version with the same number (or is
// absent locally). It returns true when the update was accepted. This is
// the receive path of Sec 4.2.
func (s *Store) Apply(m Meta) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	vo := s.objects[m.Key]
	if vo == nil {
		vo = NewVersionedObject(m.Key)
		s.objects[m.Key] = vo
	}
	if existing, ok := vo.versions[m.Version]; ok {
		if !Newer(m, *existing) {
			return false
		}
	}
	mc := m.Clone()
	vo.set(&mc)
	return true
}

// Latest returns the latest version's metadata for key.
func (s *Store) Latest(key string) (Meta, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	vo := s.objects[key]
	if vo == nil {
		return Meta{}, ErrNotFound{Key: key}
	}
	l := vo.Latest()
	if l == nil {
		return Meta{}, ErrNotFound{Key: key}
	}
	return l.Clone(), nil
}

// LatestVersion returns key's highest version number without copying its
// metadata; ok is false when the key has no version.
func (s *Store) LatestVersion(key string) (v Version, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if vo := s.objects[key]; vo != nil && vo.latest != nil {
		return vo.latest.Version, true
	}
	return 0, false
}

// GetVersion returns metadata for a specific version of key.
func (s *Store) GetVersion(key string, v Version) (Meta, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	vo := s.objects[key]
	if vo == nil {
		return Meta{}, ErrNotFound{Key: key, Version: v}
	}
	m, ok := vo.versions[v]
	if !ok {
		return Meta{}, ErrNotFound{Key: key, Version: v}
	}
	return m.Clone(), nil
}

// VersionList returns the available versions of key in ascending order
// (Table 2 getVersionList).
func (s *Store) VersionList(key string) ([]Version, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	vo := s.objects[key]
	if vo == nil || len(vo.versions) == 0 {
		return nil, ErrNotFound{Key: key}
	}
	return vo.VersionList(), nil
}

// Remove deletes all versions of key (Table 2 remove).
func (s *Store) Remove(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.objects[key]; !ok {
		return ErrNotFound{Key: key}
	}
	delete(s.objects, key)
	return nil
}

// RemoveVersion deletes one version of key (Table 2 removeVersion).
func (s *Store) RemoveVersion(key string, v Version) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	vo := s.objects[key]
	if vo == nil {
		return ErrNotFound{Key: key, Version: v}
	}
	if _, ok := vo.versions[v]; !ok {
		return ErrNotFound{Key: key, Version: v}
	}
	vo.remove(v)
	if len(vo.versions) == 0 {
		delete(s.objects, key)
	}
	return nil
}

// Touch records an access to a version at time now, updating access count
// and last-access time. It is a no-op for missing versions.
func (s *Store) Touch(key string, v Version, now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if vo := s.objects[key]; vo != nil {
		if m, ok := vo.versions[v]; ok {
			m.AccessCnt++
			m.AccessedAt = now
		}
	}
}

// SetDirty sets the dirty bit of a version (write-back bookkeeping).
func (s *Store) SetDirty(key string, v Version, dirty bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	vo := s.objects[key]
	if vo == nil {
		return ErrNotFound{Key: key, Version: v}
	}
	m, ok := vo.versions[v]
	if !ok {
		return ErrNotFound{Key: key, Version: v}
	}
	m.Dirty = dirty
	return nil
}

// SetTransforms records payload transformation flags for a version.
func (s *Store) SetTransforms(key string, v Version, compressed, encrypted bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	vo := s.objects[key]
	if vo == nil {
		return ErrNotFound{Key: key, Version: v}
	}
	m, ok := vo.versions[v]
	if !ok {
		return ErrNotFound{Key: key, Version: v}
	}
	m.Compressed = compressed
	m.Encrypted = encrypted
	return nil
}

// SetTier records which tier now holds a version's payload.
func (s *Store) SetTier(key string, v Version, tier string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	vo := s.objects[key]
	if vo == nil {
		return ErrNotFound{Key: key, Version: v}
	}
	m, ok := vo.versions[v]
	if !ok {
		return ErrNotFound{Key: key, Version: v}
	}
	m.TierName = tier
	return nil
}

// Keys returns every stored key in sorted order.
func (s *Store) Keys() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.objects))
	for k := range s.objects {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of distinct keys stored.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.objects)
}

// Scan calls fn with a copy of every version's metadata; fn returning false
// stops the scan. Policies use Scan for cold-data and tier-fill monitors.
func (s *Store) Scan(fn func(Meta) bool) {
	s.mu.RLock()
	// Copy out under lock, call fn outside to keep fn free to call back in.
	var metas []Meta
	for _, vo := range s.objects {
		for _, m := range vo.versions {
			metas = append(metas, m.Clone())
		}
	}
	s.mu.RUnlock()
	for _, m := range metas {
		if !fn(m) {
			return
		}
	}
}

// VersionKey is the tier-payload key for (key, version): tiers store
// payloads keyed by this composite so multiple versions coexist.
func VersionKey(key string, v Version) string {
	// Runs on every tier put and get: the digits are formatted on the stack
	// so the returned string is the only allocation.
	var digits [20]byte
	return key + "@v" + string(strconv.AppendInt(digits[:0], int64(v), 10))
}
