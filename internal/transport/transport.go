// Package transport carries the DSUD protocol's messages (internal/msg)
// between the coordinator H and the local sites. Two interchangeable
// implementations are provided: an in-process transport (goroutine sites,
// used by the experiment harness so tuple accounting is exact and runs are
// fast) and a real TCP transport (framed, pipelined, hand-rolled message
// encoding — see wire.go; used by the cmd/dsud-site daemon). A Meter
// counts the paper's bandwidth measure — tuples shipped — plus message and
// byte totals.
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

// Handler is the site side of the protocol.
type Handler interface {
	Handle(ctx context.Context, req *msg.Request) (*msg.Response, error)
}

// ErrClosed reports use of a closed client.
var ErrClosed = errors.New("transport: client closed")
