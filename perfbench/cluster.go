package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"time"

	"mendel"
	"mendel/internal/core"
	"mendel/internal/dht"
	"mendel/internal/node"
	"mendel/internal/seq"
	"mendel/internal/transport"
)

// clusterConfig is the configuration every workload uses: the framework
// defaults with the CLI's default bloom prefilter.
func clusterConfig() core.Config { return core.DefaultConfig(seq.Protein) }

// newMemCluster builds an in-process cluster of n nodes in 4 groups. With a
// recorder it is assembled the way core.NewInProcess assembles it, with
// every caller and handler decorated.
func newMemCluster(n int, rec *recorder) (*core.Cluster, error) {
	cfg := clusterConfig()
	var c *core.Cluster
	if rec == nil {
		p, err := core.NewInProcess(cfg, n)
		if err != nil {
			return nil, err
		}
		c = p.Cluster
	} else {
		network := transport.NewMemNetwork()
		addrs := make([]string, n)
		for i := range addrs {
			addrs[i] = fmt.Sprintf("node-%03d", i)
			nd := node.New(addrs[i], &tracedCaller{inner: network.Bind(addrs[i]), rec: rec, node: addrs[i]})
			network.Register(addrs[i], &tracedHandler{inner: nd, rec: rec, node: addrs[i]})
		}
		groups, err := dht.SplitNodes(addrs, cfg.Groups)
		if err != nil {
			return nil, err
		}
		if c, err = core.NewCluster(cfg, &tracedCaller{inner: network, rec: rec}, groups); err != nil {
			return nil, err
		}
	}
	c.SetPrefilterMode(core.PrefilterBloom)
	return c, nil
}

// tcpCluster is a cluster of TCP nodes on loopback, all in this process,
// fronted by a gateway serving HTTP on loopback.
type tcpCluster struct {
	cluster *core.Cluster
	url     string
	closers []func() // run in reverse order by close
}

func (t *tcpCluster) close() {
	for i := len(t.closers) - 1; i >= 0; i-- {
		t.closers[i]()
	}
	t.closers = nil
}

// newTCPCluster starts n TCP nodes in 4 groups and a coordinator over them.
// Without a recorder it uses the public mendel.ServeNode/NewTCPCluster; with
// one it assembles the same pieces the way mendel.ServeNodeWire and
// NewTCPClusterWire do, with every caller and handler decorated.
func newTCPCluster(n int, rec *recorder) (*tcpCluster, error) {
	cfg := clusterConfig()
	t := &tcpCluster{}
	addrs := make([]string, n)
	rc := transport.DefaultResilientConfig()
	for i := range addrs {
		if rec == nil {
			s, err := mendel.ServeNode("127.0.0.1:0")
			if err != nil {
				t.close()
				return nil, err
			}
			t.closers = append(t.closers, func() { s.Close() })
			addrs[i] = s.Addr()
			continue
		}
		srv, err := transport.ListenTCP("127.0.0.1:0", nil)
		if err != nil {
			t.close()
			return nil, err
		}
		client := transport.NewTCPClient(0)
		t.closers = append(t.closers, func() { srv.Close() }, func() { client.Close() })
		addrs[i] = srv.Addr()
		caller := &tracedCaller{inner: transport.NewResilientCaller(client, rc), rec: rec, node: addrs[i]}
		srv.SetHandler(&tracedHandler{inner: node.New(addrs[i], caller), rec: rec, node: addrs[i]})
	}
	groups, err := dht.SplitNodes(addrs, cfg.Groups)
	if err != nil {
		t.close()
		return nil, err
	}
	if rec == nil {
		t.cluster, err = mendel.NewTCPCluster(cfg, groups)
	} else {
		client := transport.NewTCPClient(0)
		t.closers = append(t.closers, func() { client.Close() })
		caller := &tracedCaller{inner: transport.NewResilientCaller(client, rc), rec: rec}
		t.cluster, err = core.NewCluster(cfg, caller, groups)
	}
	if err != nil {
		t.close()
		return nil, err
	}
	t.cluster.SetPrefilterMode(core.PrefilterBloom)
	return t, nil
}

// serve puts the cluster behind a gateway with the mendel serve defaults
// (coalescing with a 2 ms tick, max-inflight 16, queue 64, 50 hits) and
// serves its routes over HTTP on loopback. With a recorder every route is
// decorated.
func (t *tcpCluster) serve(rec *recorder) error {
	reg := mendel.NewMetricsRegistry()
	t.cluster.SetObservability(reg, nil)
	t.cluster.EnableFanOutCoalescing(core.CoalesceConfig{Tick: 2 * time.Millisecond})
	t.closers = append(t.closers, t.cluster.DisableFanOutCoalescing)
	gw := mendel.NewGateway(t.cluster, mendel.GatewayConfig{
		MaxInFlight: 16,
		MaxQueue:    64,
		Deadline:    30 * time.Second,
		MaxHits:     50,
	}, reg)
	mux := http.NewServeMux()
	for _, r := range gw.Routes() {
		var h http.Handler = r.Handler
		if rec != nil {
			h = &tracedHTTP{inner: h, rec: rec, name: r.Pattern[len("/v1/"):]}
		}
		mux.Handle(r.Pattern, h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: mux}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.closers = append(t.closers, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-done
	})
	t.url = "http://" + ln.Addr().String()
	return nil
}

// gomaxprocs is the scheduler's processor count for this run.
func gomaxprocs() int { return runtime.GOMAXPROCS(0) }
