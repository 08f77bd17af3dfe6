package wiera

// wirecodec.go: hand-rolled binary encodings (internal/wire) for the
// hot-path RPC messages — the seven Table 2 data requests and their
// replies, the TCP front's ProxyRequest envelope, replication updates and
// batches, EC fragment fetches, and the anti-entropy repair exchange.
// Control-plane messages (ring updates, policy changes, placement replies,
// heat, admin) stay on gob: they are rare, and gob's self-describing
// streams are more tolerant of struct evolution.
//
// Field order is the wire contract: encoders and decoders below must walk
// fields in the same sequence, and any layout change requires bumping
// wire.Version (DESIGN.md §13).

import (
	"fmt"

	"repro/internal/object"
	"repro/internal/repair"
	"repro/internal/wire"
)

// One-byte method tags from wiera's range of the wire tag table, 0x01–0x3F
// (see the internal/wire package doc). Never reuse a retired value — old
// peers may still emit it during a rolling upgrade.
const (
	tagPutRequest           = 0x01
	tagPutResponse          = 0x02
	tagGetRequest           = 0x03
	tagGetResponse          = 0x04
	tagGetVersionRequest    = 0x05
	tagRemoveRequest        = 0x06
	tagRemoveVersionRequest = 0x07
	tagUpdateMsg            = 0x08
	tagUpdateAck            = 0x09
	tagUpdateBatchRequest   = 0x0A
	tagUpdateBatchResponse  = 0x0B
	tagECFragRequest        = 0x0C
	tagECFragResponse       = 0x0D
	tagRepairDigestRequest  = 0x0E
	tagRepairDigestResponse = 0x0F
	tagRepairEntriesRequest = 0x10
	tagRepairEntriesRespons = 0x11
	tagRepairPullRequest    = 0x12
	tagRepairPullResponse   = 0x13
	tagRepairPushRequest    = 0x14
	tagRepairPushResponse   = 0x15
	tagEmpty                = 0x16
	tagVersionListRequest   = 0x17
	tagPlacementRequest     = 0x18
	tagProxyRequest         = 0x19
)

// RequestKey returns the key of an encoded Table 2 data request for method,
// read from the leading string of its wire body without decoding the rest.
// Every data request encodes Key first. A payload that is not that
// request's wire frame is an error.
func RequestKey(method string, payload []byte) (string, error) {
	var want byte
	switch method {
	case MethodPut:
		want = tagPutRequest
	case MethodGet:
		want = tagGetRequest
	case MethodGetVersion:
		want = tagGetVersionRequest
	case MethodVersionList:
		want = tagVersionListRequest
	case MethodRemove:
		want = tagRemoveRequest
	case MethodRemoveVer:
		want = tagRemoveVersionRequest
	case MethodPlacement:
		want = tagPlacementRequest
	default:
		return "", fmt.Errorf("wiera: %q is not a data method", method)
	}
	tag, r, err := wire.Open(payload)
	if err != nil {
		return "", fmt.Errorf("wiera: %s request: %w", method, err)
	}
	if tag != want {
		return "", fmt.Errorf("wiera: %s request: %w: got 0x%02x want 0x%02x", method, wire.ErrTag, tag, want)
	}
	key := r.Bytes()
	if err := r.Err(); err != nil {
		return "", fmt.Errorf("wiera: %s request key: %w", method, err)
	}
	return string(key), nil
}

// ---------------------------------------------------------------------------
// Shared field-group helpers. These take pointers and stay concrete so the
// compiler keeps the Reader on the stack (see wire.Unmarshaler docs).

func sizeStrings(s []string) int {
	n := wire.SizeUvarint(uint64(len(s)))
	for _, v := range s {
		n += wire.SizeString(v)
	}
	return n
}

func appendStrings(dst []byte, s []string) []byte {
	dst = wire.AppendUvarint(dst, uint64(len(s)))
	for _, v := range s {
		dst = wire.AppendString(dst, v)
	}
	return dst
}

func readStrings(r *wire.Reader, s *[]string) {
	n := r.Count()
	if r.Err() != nil {
		return
	}
	if n == 0 {
		*s = nil
		return
	}
	if cap(*s) >= n {
		*s = (*s)[:n]
	} else {
		*s = make([]string, n)
	}
	for i := range *s {
		r.StringInto(&(*s)[i])
	}
}

func sizeInts(s []int) int {
	n := wire.SizeUvarint(uint64(len(s)))
	for _, v := range s {
		n += wire.SizeVarint(int64(v))
	}
	return n
}

func appendInts(dst []byte, s []int) []byte {
	dst = wire.AppendUvarint(dst, uint64(len(s)))
	for _, v := range s {
		dst = wire.AppendVarint(dst, int64(v))
	}
	return dst
}

func readInts(r *wire.Reader, s *[]int) {
	n := r.Count()
	if r.Err() != nil {
		return
	}
	if n == 0 {
		*s = nil
		return
	}
	if cap(*s) >= n {
		*s = (*s)[:n]
	} else {
		*s = make([]int, n)
	}
	for i := range *s {
		(*s)[i] = int(r.Varint())
	}
}

func sizeMeta(m *object.Meta) int {
	return wire.SizeString(m.Key) +
		wire.SizeVarint(int64(m.Version)) +
		wire.SizeVarint(m.Size) +
		1 + // Dirty
		wire.SizeString(m.TierName) +
		wire.SizeString(m.Origin) +
		wire.SizeTime(m.CreatedAt) +
		wire.SizeTime(m.ModifiedAt) +
		wire.SizeTime(m.AccessedAt) +
		wire.SizeVarint(m.AccessCnt) +
		sizeStrings(m.Tags) +
		2 + // Compressed, Encrypted
		wire.SizeVarint(int64(m.ECK)) +
		wire.SizeVarint(int64(m.ECM)) +
		sizeInts(m.ECFrags)
}

func appendMeta(dst []byte, m *object.Meta) []byte {
	dst = wire.AppendString(dst, m.Key)
	dst = wire.AppendVarint(dst, int64(m.Version))
	dst = wire.AppendVarint(dst, m.Size)
	dst = wire.AppendBool(dst, m.Dirty)
	dst = wire.AppendString(dst, m.TierName)
	dst = wire.AppendString(dst, m.Origin)
	dst = wire.AppendTime(dst, m.CreatedAt)
	dst = wire.AppendTime(dst, m.ModifiedAt)
	dst = wire.AppendTime(dst, m.AccessedAt)
	dst = wire.AppendVarint(dst, m.AccessCnt)
	dst = appendStrings(dst, m.Tags)
	dst = wire.AppendBool(dst, m.Compressed)
	dst = wire.AppendBool(dst, m.Encrypted)
	dst = wire.AppendVarint(dst, int64(m.ECK))
	dst = wire.AppendVarint(dst, int64(m.ECM))
	return appendInts(dst, m.ECFrags)
}

func readMeta(r *wire.Reader, m *object.Meta) {
	r.StringInto(&m.Key)
	m.Version = object.Version(r.Varint())
	m.Size = r.Varint()
	m.Dirty = r.Bool()
	r.StringInto(&m.TierName)
	r.StringInto(&m.Origin)
	m.CreatedAt = r.Time()
	m.ModifiedAt = r.Time()
	m.AccessedAt = r.Time()
	m.AccessCnt = r.Varint()
	readStrings(r, &m.Tags)
	m.Compressed = r.Bool()
	m.Encrypted = r.Bool()
	m.ECK = int(r.Varint())
	m.ECM = int(r.Varint())
	readInts(r, &m.ECFrags)
}

func sizeUpdate(u *UpdateMsg) int {
	return sizeMeta(&u.Meta) + wire.SizeBytes(u.Data) + 1
}

func appendUpdate(dst []byte, u *UpdateMsg) []byte {
	dst = appendMeta(dst, &u.Meta)
	dst = wire.AppendBytes(dst, u.Data)
	return wire.AppendBool(dst, u.Forwarded)
}

func readUpdate(r *wire.Reader, u *UpdateMsg) {
	readMeta(r, &u.Meta)
	u.Data = r.Bytes()
	u.Forwarded = r.Bool()
}

func sizeUpdates(us []UpdateMsg) int {
	n := wire.SizeUvarint(uint64(len(us)))
	for i := range us {
		n += sizeUpdate(&us[i])
	}
	return n
}

func appendUpdates(dst []byte, us []UpdateMsg) []byte {
	dst = wire.AppendUvarint(dst, uint64(len(us)))
	for i := range us {
		dst = appendUpdate(dst, &us[i])
	}
	return dst
}

func readUpdates(r *wire.Reader, us *[]UpdateMsg) {
	n := r.Count()
	if r.Err() != nil {
		return
	}
	if n == 0 {
		*us = nil
		return
	}
	if cap(*us) >= n {
		*us = (*us)[:n]
	} else {
		*us = make([]UpdateMsg, n)
	}
	for i := range *us {
		readUpdate(r, &(*us)[i])
	}
}

// ---------------------------------------------------------------------------
// PutRequest / PutResponse

func (m PutRequest) WireTag() byte { return tagPutRequest }
func (m PutRequest) WireSize() int {
	return wire.SizeString(m.Key) + wire.SizeBytes(m.Data) + sizeStrings(m.Tags) + wire.SizeString(m.From)
}
func (m PutRequest) AppendWire(dst []byte) []byte {
	dst = wire.AppendString(dst, m.Key)
	dst = wire.AppendBytes(dst, m.Data)
	dst = appendStrings(dst, m.Tags)
	return wire.AppendString(dst, m.From)
}
func (m *PutRequest) UnmarshalWire(body []byte) error {
	r := wire.NewReader(body)
	r.StringInto(&m.Key)
	m.Data = r.Bytes()
	readStrings(&r, &m.Tags)
	r.StringInto(&m.From)
	return r.Close()
}

func (m PutResponse) WireTag() byte { return tagPutResponse }
func (m PutResponse) WireSize() int { return sizeMeta(&m.Meta) }
func (m PutResponse) AppendWire(dst []byte) []byte {
	return appendMeta(dst, &m.Meta)
}
func (m *PutResponse) UnmarshalWire(body []byte) error {
	r := wire.NewReader(body)
	readMeta(&r, &m.Meta)
	return r.Close()
}

// ---------------------------------------------------------------------------
// GetRequest / GetVersionRequest / GetResponse

func (m GetRequest) WireTag() byte { return tagGetRequest }
func (m GetRequest) WireSize() int { return wire.SizeString(m.Key) }
func (m GetRequest) AppendWire(dst []byte) []byte {
	return wire.AppendString(dst, m.Key)
}
func (m *GetRequest) UnmarshalWire(body []byte) error {
	r := wire.NewReader(body)
	r.StringInto(&m.Key)
	return r.Close()
}

func (m GetVersionRequest) WireTag() byte { return tagGetVersionRequest }
func (m GetVersionRequest) WireSize() int {
	return wire.SizeString(m.Key) + wire.SizeVarint(int64(m.Version))
}
func (m GetVersionRequest) AppendWire(dst []byte) []byte {
	dst = wire.AppendString(dst, m.Key)
	return wire.AppendVarint(dst, int64(m.Version))
}
func (m *GetVersionRequest) UnmarshalWire(body []byte) error {
	r := wire.NewReader(body)
	r.StringInto(&m.Key)
	m.Version = object.Version(r.Varint())
	return r.Close()
}

func (m GetResponse) WireTag() byte { return tagGetResponse }
func (m GetResponse) WireSize() int {
	return wire.SizeBytes(m.Data) + sizeMeta(&m.Meta) + sizeStrings(m.HotReplicas)
}
func (m GetResponse) AppendWire(dst []byte) []byte {
	dst = wire.AppendBytes(dst, m.Data)
	dst = appendMeta(dst, &m.Meta)
	return appendStrings(dst, m.HotReplicas)
}
func (m *GetResponse) UnmarshalWire(body []byte) error {
	r := wire.NewReader(body)
	m.Data = r.Bytes()
	readMeta(&r, &m.Meta)
	readStrings(&r, &m.HotReplicas)
	return r.Close()
}

// ---------------------------------------------------------------------------
// VersionListRequest / PlacementRequest

func (m VersionListRequest) WireTag() byte { return tagVersionListRequest }
func (m VersionListRequest) WireSize() int { return wire.SizeString(m.Key) }
func (m VersionListRequest) AppendWire(dst []byte) []byte {
	return wire.AppendString(dst, m.Key)
}
func (m *VersionListRequest) UnmarshalWire(body []byte) error {
	r := wire.NewReader(body)
	r.StringInto(&m.Key)
	return r.Close()
}

func (m PlacementRequest) WireTag() byte { return tagPlacementRequest }
func (m PlacementRequest) WireSize() int { return wire.SizeString(m.Key) }
func (m PlacementRequest) AppendWire(dst []byte) []byte {
	return wire.AppendString(dst, m.Key)
}
func (m *PlacementRequest) UnmarshalWire(body []byte) error {
	r := wire.NewReader(body)
	r.StringInto(&m.Key)
	return r.Close()
}

// ---------------------------------------------------------------------------
// ProxyRequest: the TCP front's envelope. Payload is the inner request's
// frame and decodes aliasing the outer one.

func (m ProxyRequest) WireTag() byte { return tagProxyRequest }
func (m ProxyRequest) WireSize() int {
	return wire.SizeString(m.InstanceID) + wire.SizeBytes(m.Payload)
}
func (m ProxyRequest) AppendWire(dst []byte) []byte {
	dst = wire.AppendString(dst, m.InstanceID)
	return wire.AppendBytes(dst, m.Payload)
}
func (m *ProxyRequest) UnmarshalWire(body []byte) error {
	r := wire.NewReader(body)
	r.StringInto(&m.InstanceID)
	m.Payload = r.Bytes()
	return r.Close()
}

// ---------------------------------------------------------------------------
// RemoveRequest / RemoveVersionRequest

func (m RemoveRequest) WireTag() byte { return tagRemoveRequest }
func (m RemoveRequest) WireSize() int { return wire.SizeString(m.Key) }
func (m RemoveRequest) AppendWire(dst []byte) []byte {
	return wire.AppendString(dst, m.Key)
}
func (m *RemoveRequest) UnmarshalWire(body []byte) error {
	r := wire.NewReader(body)
	r.StringInto(&m.Key)
	return r.Close()
}

func (m RemoveVersionRequest) WireTag() byte { return tagRemoveVersionRequest }
func (m RemoveVersionRequest) WireSize() int {
	return wire.SizeString(m.Key) + wire.SizeVarint(int64(m.Version))
}
func (m RemoveVersionRequest) AppendWire(dst []byte) []byte {
	dst = wire.AppendString(dst, m.Key)
	return wire.AppendVarint(dst, int64(m.Version))
}
func (m *RemoveVersionRequest) UnmarshalWire(body []byte) error {
	r := wire.NewReader(body)
	r.StringInto(&m.Key)
	m.Version = object.Version(r.Varint())
	return r.Close()
}

// ---------------------------------------------------------------------------
// UpdateMsg / UpdateAck / batches

func (m UpdateMsg) WireTag() byte { return tagUpdateMsg }
func (m UpdateMsg) WireSize() int { return sizeUpdate(&m) }
func (m UpdateMsg) AppendWire(dst []byte) []byte {
	return appendUpdate(dst, &m)
}
func (m *UpdateMsg) UnmarshalWire(body []byte) error {
	r := wire.NewReader(body)
	readUpdate(&r, m)
	return r.Close()
}

func (m UpdateAck) WireTag() byte { return tagUpdateAck }
func (m UpdateAck) WireSize() int { return 1 }
func (m UpdateAck) AppendWire(dst []byte) []byte {
	return wire.AppendBool(dst, m.Accepted)
}
func (m *UpdateAck) UnmarshalWire(body []byte) error {
	r := wire.NewReader(body)
	m.Accepted = r.Bool()
	return r.Close()
}

func (m UpdateBatchRequest) WireTag() byte { return tagUpdateBatchRequest }
func (m UpdateBatchRequest) WireSize() int { return sizeUpdates(m.Updates) }
func (m UpdateBatchRequest) AppendWire(dst []byte) []byte {
	return appendUpdates(dst, m.Updates)
}
func (m *UpdateBatchRequest) UnmarshalWire(body []byte) error {
	r := wire.NewReader(body)
	readUpdates(&r, &m.Updates)
	return r.Close()
}

func (m UpdateBatchResponse) WireTag() byte { return tagUpdateBatchResponse }
func (m UpdateBatchResponse) WireSize() int {
	n := wire.SizeUvarint(uint64(len(m.Acks)))
	for i := range m.Acks {
		n += 1 + wire.SizeString(m.Acks[i].Err)
	}
	return n
}
func (m UpdateBatchResponse) AppendWire(dst []byte) []byte {
	dst = wire.AppendUvarint(dst, uint64(len(m.Acks)))
	for i := range m.Acks {
		dst = wire.AppendBool(dst, m.Acks[i].Accepted)
		dst = wire.AppendString(dst, m.Acks[i].Err)
	}
	return dst
}
func (m *UpdateBatchResponse) UnmarshalWire(body []byte) error {
	r := wire.NewReader(body)
	n := r.Count()
	if err := r.Err(); err != nil {
		return err
	}
	if n == 0 {
		m.Acks = nil
		return r.Close()
	}
	if cap(m.Acks) >= n {
		m.Acks = m.Acks[:n]
	} else {
		m.Acks = make([]BatchAck, n)
	}
	for i := range m.Acks {
		m.Acks[i].Accepted = r.Bool()
		r.StringInto(&m.Acks[i].Err)
	}
	return r.Close()
}

// ---------------------------------------------------------------------------
// EC fragment fetch

func (m ECFragRequest) WireTag() byte { return tagECFragRequest }
func (m ECFragRequest) WireSize() int {
	return wire.SizeString(m.Key) + wire.SizeVarint(int64(m.Version))
}
func (m ECFragRequest) AppendWire(dst []byte) []byte {
	dst = wire.AppendString(dst, m.Key)
	return wire.AppendVarint(dst, int64(m.Version))
}
func (m *ECFragRequest) UnmarshalWire(body []byte) error {
	r := wire.NewReader(body)
	r.StringInto(&m.Key)
	m.Version = object.Version(r.Varint())
	return r.Close()
}

func (m ECFragResponse) WireTag() byte { return tagECFragResponse }
func (m ECFragResponse) WireSize() int {
	return sizeMeta(&m.Meta) + wire.SizeBytes(m.Data)
}
func (m ECFragResponse) AppendWire(dst []byte) []byte {
	dst = appendMeta(dst, &m.Meta)
	return wire.AppendBytes(dst, m.Data)
}
func (m *ECFragResponse) UnmarshalWire(body []byte) error {
	r := wire.NewReader(body)
	readMeta(&r, &m.Meta)
	m.Data = r.Bytes()
	return r.Close()
}

// ---------------------------------------------------------------------------
// Anti-entropy repair exchange

func (m RepairDigestRequest) WireTag() byte { return tagRepairDigestRequest }
func (m RepairDigestRequest) WireSize() int {
	return wire.SizeVarint(int64(m.Fanout)) + wire.SizeVarint(int64(m.Depth)) + sizeInts(m.Nodes)
}
func (m RepairDigestRequest) AppendWire(dst []byte) []byte {
	dst = wire.AppendVarint(dst, int64(m.Fanout))
	dst = wire.AppendVarint(dst, int64(m.Depth))
	return appendInts(dst, m.Nodes)
}
func (m *RepairDigestRequest) UnmarshalWire(body []byte) error {
	r := wire.NewReader(body)
	m.Fanout = int(r.Varint())
	m.Depth = int(r.Varint())
	readInts(&r, &m.Nodes)
	return r.Close()
}

func (m RepairDigestResponse) WireTag() byte { return tagRepairDigestResponse }
func (m RepairDigestResponse) WireSize() int {
	n := wire.SizeUvarint(uint64(len(m.Digests)))
	for _, d := range m.Digests {
		n += wire.SizeUvarint(d)
	}
	return n
}
func (m RepairDigestResponse) AppendWire(dst []byte) []byte {
	dst = wire.AppendUvarint(dst, uint64(len(m.Digests)))
	for _, d := range m.Digests {
		dst = wire.AppendUvarint(dst, d)
	}
	return dst
}
func (m *RepairDigestResponse) UnmarshalWire(body []byte) error {
	r := wire.NewReader(body)
	n := r.Count()
	if err := r.Err(); err != nil {
		return err
	}
	if n == 0 {
		m.Digests = nil
		return r.Close()
	}
	if cap(m.Digests) >= n {
		m.Digests = m.Digests[:n]
	} else {
		m.Digests = make([]uint64, n)
	}
	for i := range m.Digests {
		m.Digests[i] = r.Uvarint()
	}
	return r.Close()
}

func (m RepairEntriesRequest) WireTag() byte { return tagRepairEntriesRequest }
func (m RepairEntriesRequest) WireSize() int {
	return wire.SizeVarint(int64(m.Fanout)) + wire.SizeVarint(int64(m.Depth)) + sizeInts(m.Leaves)
}
func (m RepairEntriesRequest) AppendWire(dst []byte) []byte {
	dst = wire.AppendVarint(dst, int64(m.Fanout))
	dst = wire.AppendVarint(dst, int64(m.Depth))
	return appendInts(dst, m.Leaves)
}
func (m *RepairEntriesRequest) UnmarshalWire(body []byte) error {
	r := wire.NewReader(body)
	m.Fanout = int(r.Varint())
	m.Depth = int(r.Varint())
	readInts(&r, &m.Leaves)
	return r.Close()
}

func (m RepairEntriesResponse) WireTag() byte { return tagRepairEntriesRespons }
func (m RepairEntriesResponse) WireSize() int {
	n := wire.SizeUvarint(uint64(len(m.Entries)))
	for i := range m.Entries {
		e := &m.Entries[i]
		n += wire.SizeString(e.Key) + wire.SizeVarint(e.Version) + wire.SizeVarint(e.Mtime) + wire.SizeString(e.Origin)
	}
	return n
}
func (m RepairEntriesResponse) AppendWire(dst []byte) []byte {
	dst = wire.AppendUvarint(dst, uint64(len(m.Entries)))
	for i := range m.Entries {
		e := &m.Entries[i]
		dst = wire.AppendString(dst, e.Key)
		dst = wire.AppendVarint(dst, e.Version)
		dst = wire.AppendVarint(dst, e.Mtime)
		dst = wire.AppendString(dst, e.Origin)
	}
	return dst
}
func (m *RepairEntriesResponse) UnmarshalWire(body []byte) error {
	r := wire.NewReader(body)
	n := r.Count()
	if err := r.Err(); err != nil {
		return err
	}
	if n == 0 {
		m.Entries = nil
		return r.Close()
	}
	if cap(m.Entries) >= n {
		m.Entries = m.Entries[:n]
	} else {
		m.Entries = make([]repair.Entry, n)
	}
	for i := range m.Entries {
		e := &m.Entries[i]
		r.StringInto(&e.Key)
		e.Version = r.Varint()
		e.Mtime = r.Varint()
		r.StringInto(&e.Origin)
	}
	return r.Close()
}

func (m RepairPullRequest) WireTag() byte { return tagRepairPullRequest }
func (m RepairPullRequest) WireSize() int { return sizeStrings(m.Keys) }
func (m RepairPullRequest) AppendWire(dst []byte) []byte {
	return appendStrings(dst, m.Keys)
}
func (m *RepairPullRequest) UnmarshalWire(body []byte) error {
	r := wire.NewReader(body)
	readStrings(&r, &m.Keys)
	return r.Close()
}

func (m RepairPullResponse) WireTag() byte { return tagRepairPullResponse }
func (m RepairPullResponse) WireSize() int { return sizeUpdates(m.Updates) }
func (m RepairPullResponse) AppendWire(dst []byte) []byte {
	return appendUpdates(dst, m.Updates)
}
func (m *RepairPullResponse) UnmarshalWire(body []byte) error {
	r := wire.NewReader(body)
	readUpdates(&r, &m.Updates)
	return r.Close()
}

func (m RepairPushRequest) WireTag() byte { return tagRepairPushRequest }
func (m RepairPushRequest) WireSize() int { return sizeUpdates(m.Updates) }
func (m RepairPushRequest) AppendWire(dst []byte) []byte {
	return appendUpdates(dst, m.Updates)
}
func (m *RepairPushRequest) UnmarshalWire(body []byte) error {
	r := wire.NewReader(body)
	readUpdates(&r, &m.Updates)
	return r.Close()
}

func (m RepairPushResponse) WireTag() byte { return tagRepairPushResponse }
func (m RepairPushResponse) WireSize() int { return wire.SizeVarint(int64(m.Accepted)) }
func (m RepairPushResponse) AppendWire(dst []byte) []byte {
	return wire.AppendVarint(dst, int64(m.Accepted))
}
func (m *RepairPushResponse) UnmarshalWire(body []byte) error {
	r := wire.NewReader(body)
	m.Accepted = int(r.Varint())
	return r.Close()
}

// ---------------------------------------------------------------------------
// Empty (shared zero-size reply)

func (m Empty) WireTag() byte                { return tagEmpty }
func (m Empty) WireSize() int                { return 0 }
func (m Empty) AppendWire(dst []byte) []byte { return dst }
func (m *Empty) UnmarshalWire(body []byte) error {
	r := wire.NewReader(body)
	return r.Close()
}

// Compile-time interface checks: every hot message implements both sides.
var (
	_ wire.Unmarshaler = (*PutRequest)(nil)
	_ wire.Unmarshaler = (*PutResponse)(nil)
	_ wire.Unmarshaler = (*GetRequest)(nil)
	_ wire.Unmarshaler = (*GetResponse)(nil)
	_ wire.Unmarshaler = (*GetVersionRequest)(nil)
	_ wire.Unmarshaler = (*VersionListRequest)(nil)
	_ wire.Unmarshaler = (*PlacementRequest)(nil)
	_ wire.Unmarshaler = (*ProxyRequest)(nil)
	_ wire.Unmarshaler = (*RemoveRequest)(nil)
	_ wire.Unmarshaler = (*RemoveVersionRequest)(nil)
	_ wire.Unmarshaler = (*UpdateMsg)(nil)
	_ wire.Unmarshaler = (*UpdateAck)(nil)
	_ wire.Unmarshaler = (*UpdateBatchRequest)(nil)
	_ wire.Unmarshaler = (*UpdateBatchResponse)(nil)
	_ wire.Unmarshaler = (*ECFragRequest)(nil)
	_ wire.Unmarshaler = (*ECFragResponse)(nil)
	_ wire.Unmarshaler = (*RepairDigestRequest)(nil)
	_ wire.Unmarshaler = (*RepairDigestResponse)(nil)
	_ wire.Unmarshaler = (*RepairEntriesRequest)(nil)
	_ wire.Unmarshaler = (*RepairEntriesResponse)(nil)
	_ wire.Unmarshaler = (*RepairPullRequest)(nil)
	_ wire.Unmarshaler = (*RepairPullResponse)(nil)
	_ wire.Unmarshaler = (*RepairPushRequest)(nil)
	_ wire.Unmarshaler = (*RepairPushResponse)(nil)
	_ wire.Unmarshaler = (*Empty)(nil)
)
