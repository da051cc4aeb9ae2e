// Command host runs the benchmark's cluster: four live Q/A nodes holding a
// TREC-8-like collection as K=4 shards with one replica each, plus a qagate
// gateway in front of them, all in this one process. The nodes and the
// gateway come from the public constructors (live.StartNode, gate.New), so
// they serve asks with the same code a qanode/qagate deployment runs.
//
// Once every node is listening and peered it prints one JSON line with the
// node and gateway addresses, then serves until its standard input closes,
// when it shuts the gateway and the nodes down and exits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"distqa/internal/corpus"
	"distqa/internal/gate"
	"distqa/internal/index"
	"distqa/internal/live"
	"distqa/internal/qa"
	"distqa/internal/shard"
)

// clusterSize is both the node count and the shard count (K=4, R=1).
const clusterSize = 4

// ready is the line printed once the cluster is up.
type ready struct {
	Nodes []string `json:"nodes"`
	Gate  string   `json:"gate"`
}

func main() {
	caches := flag.Bool("caches", true, "enable the nodes' answer and PR caches")
	flag.Parse()
	if err := run(*caches); err != nil {
		fmt.Fprintln(os.Stderr, "host:", err)
		os.Exit(1)
	}
}

func run(caches bool) error {
	nodes, err := startNodes(caches)
	if err != nil {
		return err
	}
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()
	addrs := make([]string, len(nodes))
	for i, n := range nodes {
		addrs[i] = n.Addr()
	}
	for i, n := range nodes {
		for j, a := range addrs {
			if i != j {
				n.AddPeer(a)
			}
		}
	}
	g, err := gate.New(gate.Config{Addr: "127.0.0.1:0", Nodes: addrs})
	if err != nil {
		return err
	}
	if err := g.Start(); err != nil {
		return err
	}
	defer g.Close()
	line, err := json.Marshal(ready{Nodes: addrs, Gate: g.URL()})
	if err != nil {
		return err
	}
	if _, err := fmt.Printf("%s\n", line); err != nil {
		return err
	}
	// Serve until the benchmark closes our standard input (or exits).
	_, _ = io.Copy(io.Discard, os.Stdin)
	return nil
}

// startNodes generates the collection once and starts the four nodes over
// it, each with an index of only the shard it holds. Sharing one copy of the
// collection text keeps the host's heap to about a quarter of four separate
// replicas, so garbage-collection cycles are short and the timed phases see
// few of them.
func startNodes(caches bool) ([]*live.Node, error) {
	coll := corpus.Generate(corpus.TREC8Like())
	nodes := make([]*live.Node, 0, clusterSize)
	for i := 0; i < clusterSize; i++ {
		eng := qa.NewEngine(coll, index.BuildSubset(coll, shard.HoldingSubs(i, clusterSize, clusterSize, 1, len(coll.Subs))))
		// What a node building its own replica does: fan PR/PS out over the
		// host's cores.
		eng.Workers = runtime.GOMAXPROCS(0)
		n, err := live.StartNode(live.NodeConfig{
			Addr:   "127.0.0.1:0",
			Engine: eng,
			Cache:  live.CacheConfig{Disabled: !caches},
			Shard:  live.ShardConfig{K: clusterSize, R: 1, NodeIndex: i, ClusterSize: clusterSize},
		})
		if err != nil {
			for _, n := range nodes {
				n.Close()
			}
			return nil, fmt.Errorf("start node %d: %w", i, err)
		}
		nodes = append(nodes, n)
	}
	return nodes, nil
}
