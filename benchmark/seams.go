package main

// seams.go is the only file of the benchmark that imports the program
// under test. Everything else talks to the aliases and helpers below, so
// a PR that moves or renames one of these seams has exactly one file to
// reconcile — and a PR that claims a gain may not edit the benchmark at
// all, so the list is also the API the benchmark pins. It is repeated in
// README.md ("Seams").
//
// Deliberately absent: transport.DelayedHandler, ClusterConfig.DisableMux,
// the v1 serial client and internal/skyline. ROADMAP item 3 deletes them.

import (
	"context"
	"net"

	"repro/dsq"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/prtree"
	"repro/internal/serve"
	"repro/internal/site"
	"repro/internal/transport"
)

// dims is the dimensionality of every workload (the paper's default).
const dims = 3

type (
	Tuple   = dsq.Tuple
	TupleID = dsq.TupleID
	Point   = dsq.Point
	DB      = dsq.DB
	Member  = dsq.SkylineMember

	Cluster = dsq.Cluster
	Server  = dsq.Server
	Options = dsq.Options
	Report  = dsq.Report
	Result  = dsq.Result

	Client   = transport.Client
	Handler  = transport.Handler
	Request  = transport.Request
	Response = transport.Response

	ValueDist = dsq.ValueDist

	Tree       = prtree.Tree
	Store      = serve.Store
	StoreEntry = serve.Entry
)

const (
	modeProtocol = dsq.ModeProtocol
	modeAuto     = dsq.ModeAuto

	sourceProtocol     = dsq.SourceProtocol
	sourceMaterialized = dsq.SourceMaterialized

	independent    = dsq.Independent
	anticorrelated = dsq.Anticorrelated
	correlated     = dsq.Correlated

	kindNext     = transport.KindNext
	kindEvaluate = transport.KindEvaluate
)

// generate draws n tuples with uniform existential probabilities.
func generate(n int, values ValueDist, seed int64) (DB, error) {
	return dsq.GenerateWorkload(dsq.WorkloadConfig{
		N: n, Dims: dims, Values: values, Probs: dsq.UniformProb, Seed: seed,
	})
}

func partition(db DB, m int, seed int64) ([]DB, error) {
	return dsq.PartitionWorkload(db, m, seed)
}

// bruteForceSkyline is the repo's O(N²) reference, used only by the
// oracle's own test.
func bruteForceSkyline(db DB, q float64) []Member { return dsq.CentralSkyline(db, q, nil) }

func newEngine(id int, part DB) Handler { return site.New(id, part, dims, 0) }

func connectPartitions(parts []DB) (*Cluster, error) {
	return dsq.Connect(dsq.ClusterConfig{Partitions: parts, Dims: dims})
}

func connectAddrs(addrs []string) (*Cluster, error) {
	return dsq.Connect(dsq.ClusterConfig{Addrs: addrs, Dims: dims})
}

func clusterFromClients(clients []Client) (*Cluster, error) {
	return core.NewClusterFromClients(clients, dims)
}

func serveFloor(ctx context.Context, c *Cluster, floor float64) (*Server, error) {
	return c.Serve(ctx, dsq.ServeConfig{Floor: floor})
}

func localClient(h Handler) Client { return transport.Local(h) }

func dialSite(addr string) (Client, error) { return transport.DialAuto(addr, nil) }

// callBytes is Call plus the request's exact wire bytes where the client
// can attribute them (the mux transport), zero otherwise.
func callBytes(ctx context.Context, c Client, req *Request) (*Response, int64, error) {
	if br, ok := c.(transport.ByteReporter); ok {
		return br.CallBytes(ctx, req)
	}
	resp, err := c.Call(ctx, req)
	return resp, 0, err
}

// listenSite serves h on a fresh loopback port and returns its address
// and a stop function that closes the listener and waits for the
// per-connection goroutines.
func listenSite(h Handler) (addr string, stop func(), err error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := transport.NewServer(h, nil)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(lis) // returns nil once Close is called
	}()
	return lis.Addr().String(), func() {
		_ = srv.Close() // listener teardown; nothing to report
		<-done
	}, nil
}

func bulkTree(db DB) *Tree { return prtree.Bulk(db, dims, 0) }

func newStore(floor float64) *Store { return serve.New(floor) }

// frameRoundTrip frames payload into buf and decodes it again, returning
// the (reusable) buffer.
func frameRoundTrip(buf, payload []byte, id uint64) ([]byte, error) {
	buf = codec.AppendFrame(buf[:0], codec.FrameRequest, id, payload)
	_, err := codec.DecodeFrameBody(buf[4:]) // skip the length prefix
	return buf, err
}
