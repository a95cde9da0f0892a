// Package golden embeds the ledger's expected outputs: per network the
// total latency and energy and every layer's temporal nest (networks.json),
// the mapper.Best winner of both fabric problems (fabric.json), and the
// serve-mix hot set's answers (serve.json). The ledger's TestGoldens
// regenerates them through the library path and fails when they are stale;
// `go test ./ledger -run TestGoldens -update` rewrites them.
package golden

import _ "embed"

var (
	//go:embed networks.json
	Networks []byte
	//go:embed fabric.json
	Fabric []byte
	//go:embed serve.json
	Serve []byte
)
