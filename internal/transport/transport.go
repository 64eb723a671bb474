// Package transport carries the DSUD protocol's messages (internal/msg)
// between the coordinator H and the local sites. Two interchangeable
// implementations are provided: an in-process transport (sites that
// answer on the caller's goroutine, used by the experiment harness so
// tuple accounting is exact and runs are fast) and a real TCP transport
// (framed, pipelined, hand-rolled message encoding — see wire.go; used by
// the cmd/dsud-site daemon). A Meter counts the paper's bandwidth measure
// — tuples shipped — plus message and byte totals.
package transport

import (
	"context"
	"errors"

	"repro/internal/msg"
)

// The benchmark module compiles against these four names and may not be
// edited alongside the program, so they stay as aliases of the msg types.
// Code in this module names msg.* directly.
type (
	Request  = msg.Request
	Response = msg.Response
)

const (
	KindNext     = msg.KindNext
	KindEvaluate = msg.KindEvaluate
)

// Client is the coordinator's handle to one site.
type Client interface {
	// Call executes one request against the site. Implementations must
	// honour ctx cancellation.
	Call(ctx context.Context, req *msg.Request) (*msg.Response, error)
	// Close releases the connection. Calls after Close fail.
	Close() error
}

// Reply is the outcome of one call started by Send: the slot the caller
// started it for, the response or the error, and the wire bytes the call
// took (zero in-process and on failure).
type Reply struct {
	Slot  int
	Resp  *msg.Response
	Bytes int64
	Err   error
}

// Sender is the optional Client extension for transports that start a
// call without a goroutine to wait on it: Local answers on the caller's
// goroutine, and MuxClient writes the request there and has its read
// loop deliver the reply.
type Sender interface {
	Client
	// Send starts req and delivers exactly one Reply tagged slot on done,
	// which must have room for it: a Send never blocks on done. If ctx
	// ends first, the Reply carries ctx's error. req stays the caller's
	// and unchanged until the Reply arrives.
	Send(ctx context.Context, req *msg.Request, slot int, done chan<- Reply)
}

// Send starts req on cl and delivers its one Reply on done: through cl's
// own Send, or else from a goroutine of its own running CallBytes.
func Send(cl Client, ctx context.Context, req *msg.Request, slot int, done chan<- Reply) {
	if s, ok := cl.(Sender); ok {
		s.Send(ctx, req, slot, done)
		return
	}
	go func() {
		resp, n, err := CallBytes(cl, ctx, req)
		done <- Reply{Slot: slot, Resp: resp, Bytes: n, Err: err}
	}()
}

// Handler is the site side of the protocol.
type Handler interface {
	Handle(ctx context.Context, req *msg.Request) (*msg.Response, error)
}

// ErrClosed reports use of a closed client.
var ErrClosed = errors.New("transport: client closed")
