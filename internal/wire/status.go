package wire

import "errors"

// Code is the status a reply carries next to its payload: zero for
// success, non-zero when the handler failed. It is the one table of
// failure kinds a caller may act on (DESIGN.md §13); everything else a
// handler returns travels as CodeError with its text only.
type Code uint8

const (
	// CodeOK marks a successful reply (and a nil error in CodeOf).
	CodeOK Code = iota
	// CodeError is a handler error that declares no code: text, no detail.
	CodeError
	// CodeWrongShard: the callee does not own the key.
	// Detail: svarint epoch, svarint shard, string owner.
	CodeWrongShard
	// CodeRebalanceInProgress: a ring change is already in flight.
	// Detail: string instance id.
	CodeRebalanceInProgress
	// CodeQuotaExceeded: tenant admission denied the operation.
	// Detail: string tenant, string kind.
	CodeQuotaExceeded
	// CodeUnavailable: the callee is leaving the instance (teardown or
	// policy change); another node can serve the request. No detail.
	CodeUnavailable
)

// Coded is implemented by errors that declare a Code. The detail is the
// error's fields as a wire body in the layout the Code's comment fixes;
// transports carry both verbatim, so a forwarded reply keeps the code of
// the hop that raised it.
type Coded interface {
	error
	WireStatus() (Code, []byte)
}

// CodeOf returns the code and detail declared by the first Coded error in
// err's chain, CodeError for any other error, and CodeOK for nil only: a
// failure is never reported as a success.
func CodeOf(err error) (Code, []byte) {
	if err == nil {
		return CodeOK, nil
	}
	var c Coded
	if errors.As(err, &c) {
		if code, detail := c.WireStatus(); code != CodeOK {
			return code, detail
		}
	}
	return CodeError, nil
}
