package metrics

import (
	"fmt"
	"runtime"
)

// BuildVersion identifies this InstantDB build in the
// instantdb_build_info metric (the wire protocol version remains
// authoritative for compatibility decisions).
const BuildVersion = "0.9.0"

// InstrumentBuildInfo registers the conventional instantdb_build_info
// series (constant 1) on reg, carrying the build version and Go
// runtime in its label: version, Go release and platform fold into one
// label value together. Both the
// server (per-database registry) and the shard router (its own
// registry) register it, so every /metrics endpoint answers the same
// question: what exactly is running here?
func InstrumentBuildInfo(reg *Registry) {
	info := fmt.Sprintf("instantdb-%s %s %s/%s",
		BuildVersion, runtime.Version(), runtime.GOOS, runtime.GOARCH)
	reg.GaugeFuncVec("instantdb_build_info",
		"Build information; the value is always 1, the label carries version and Go runtime.",
		"build", func(emit func(string, float64)) { emit(info, 1) })
}
