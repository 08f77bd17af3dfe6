package coord

// wirecodec.go: internal/wire encodings of the session and lock messages,
// which every MultiPrimaries put sends twice (acquire, release). Ring
// publish/fetch is control plane and stays on gob. Field order is the wire
// contract (DESIGN.md §13).

import "repro/internal/wire"

// Method tags from coord's range of the wire tag table, 0x40–0x4F (see the
// internal/wire package doc). Never reuse a retired value.
const (
	tagCreateSessionReq  = 0x40
	tagCreateSessionResp = 0x41
	tagKeepAliveReq      = 0x42
	tagCloseSessionReq   = 0x43
	tagAcquireReq        = 0x44
	tagAcquireResp       = 0x45
	tagReleaseReq        = 0x46
	tagEmpty             = 0x47
)

func (m createSessionReq) WireTag() byte { return tagCreateSessionReq }
func (m createSessionReq) WireSize() int { return wire.SizeVarint(m.TTLMillis) }
func (m createSessionReq) AppendWire(dst []byte) []byte {
	return wire.AppendVarint(dst, m.TTLMillis)
}
func (m *createSessionReq) UnmarshalWire(body []byte) error {
	r := wire.NewReader(body)
	m.TTLMillis = r.Varint()
	return r.Close()
}

func (m createSessionResp) WireTag() byte { return tagCreateSessionResp }
func (m createSessionResp) WireSize() int { return wire.SizeVarint(m.SessionID) }
func (m createSessionResp) AppendWire(dst []byte) []byte {
	return wire.AppendVarint(dst, m.SessionID)
}
func (m *createSessionResp) UnmarshalWire(body []byte) error {
	r := wire.NewReader(body)
	m.SessionID = r.Varint()
	return r.Close()
}

func (m keepAliveReq) WireTag() byte { return tagKeepAliveReq }
func (m keepAliveReq) WireSize() int { return wire.SizeVarint(m.SessionID) }
func (m keepAliveReq) AppendWire(dst []byte) []byte {
	return wire.AppendVarint(dst, m.SessionID)
}
func (m *keepAliveReq) UnmarshalWire(body []byte) error {
	r := wire.NewReader(body)
	m.SessionID = r.Varint()
	return r.Close()
}

func (m closeSessionReq) WireTag() byte { return tagCloseSessionReq }
func (m closeSessionReq) WireSize() int { return wire.SizeVarint(m.SessionID) }
func (m closeSessionReq) AppendWire(dst []byte) []byte {
	return wire.AppendVarint(dst, m.SessionID)
}
func (m *closeSessionReq) UnmarshalWire(body []byte) error {
	r := wire.NewReader(body)
	m.SessionID = r.Varint()
	return r.Close()
}

func (m acquireReq) WireTag() byte { return tagAcquireReq }
func (m acquireReq) WireSize() int {
	return wire.SizeVarint(m.SessionID) + wire.SizeString(m.Key) + wire.SizeVarint(m.WaitMillis)
}
func (m acquireReq) AppendWire(dst []byte) []byte {
	dst = wire.AppendVarint(dst, m.SessionID)
	dst = wire.AppendString(dst, m.Key)
	return wire.AppendVarint(dst, m.WaitMillis)
}
func (m *acquireReq) UnmarshalWire(body []byte) error {
	r := wire.NewReader(body)
	m.SessionID = r.Varint()
	r.StringInto(&m.Key)
	m.WaitMillis = r.Varint()
	return r.Close()
}

func (m acquireResp) WireTag() byte { return tagAcquireResp }
func (m acquireResp) WireSize() int { return 1 }
func (m acquireResp) AppendWire(dst []byte) []byte {
	return wire.AppendBool(dst, m.Granted)
}
func (m *acquireResp) UnmarshalWire(body []byte) error {
	r := wire.NewReader(body)
	m.Granted = r.Bool()
	return r.Close()
}

func (m releaseReq) WireTag() byte { return tagReleaseReq }
func (m releaseReq) WireSize() int {
	return wire.SizeVarint(m.SessionID) + wire.SizeString(m.Key)
}
func (m releaseReq) AppendWire(dst []byte) []byte {
	dst = wire.AppendVarint(dst, m.SessionID)
	return wire.AppendString(dst, m.Key)
}
func (m *releaseReq) UnmarshalWire(body []byte) error {
	r := wire.NewReader(body)
	m.SessionID = r.Varint()
	r.StringInto(&m.Key)
	return r.Close()
}

func (m empty) WireTag() byte                { return tagEmpty }
func (m empty) WireSize() int                { return 0 }
func (m empty) AppendWire(dst []byte) []byte { return dst }
func (m *empty) UnmarshalWire(body []byte) error {
	r := wire.NewReader(body)
	return r.Close()
}

// Compile-time interface checks: every session and lock message implements
// both sides.
var (
	_ wire.Unmarshaler = (*createSessionReq)(nil)
	_ wire.Unmarshaler = (*createSessionResp)(nil)
	_ wire.Unmarshaler = (*keepAliveReq)(nil)
	_ wire.Unmarshaler = (*closeSessionReq)(nil)
	_ wire.Unmarshaler = (*acquireReq)(nil)
	_ wire.Unmarshaler = (*acquireResp)(nil)
	_ wire.Unmarshaler = (*releaseReq)(nil)
	_ wire.Unmarshaler = (*empty)(nil)
)
