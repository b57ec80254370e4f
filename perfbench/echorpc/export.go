package echorpc

import "specrpc/internal/wire"

// PlanEchoarr exposes the generated array plan, so the benchmark can call
// client.CallTyped with a result value it reuses across calls instead of
// the fresh one the generated Echo method allocates per call.
var PlanEchoarr *wire.Plan[Echoarr] = planEchoarr
