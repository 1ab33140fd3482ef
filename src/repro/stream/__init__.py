"""repro.stream — live streaming telemetry with incremental operators.

The batch pipeline answers "what did the machine do last year"; this
package answers "what is it doing right now" with the same math.  A
:class:`~repro.stream.source.TelemetryReplaySource` replays twin telemetry
through the modeled fan-in path (per-hop delays, out-of-order arrival,
loss gaps); incremental operators — online coarsening, running cluster
aggregation, streaming edge detection, rolling PUE, an online spectral
estimator — finalize event-time windows as a watermark passes them; and a
single-threaded :class:`~repro.stream.runtime.StreamGraph` runs each source
batch through the whole operator tree before pulling the next, with
checkpoint/restore.

The defining property: on skew-free, loss-free input every streaming
operator reproduces its batch counterpart **bit for bit**, and with skew
or loss the watermark accounting explains exactly which rows were late or
dropped (``tests/stream/``).
"""

from repro.stream.batch import RecordBatch
from repro.stream.operators import (
    OnlineSpectral,
    Operator,
    StreamingClusterAggregate,
    StreamingCoarsen,
    StreamingEdgeDetector,
    StreamingPUE,
)
from repro.stream.runtime import StreamGraph
from repro.stream.source import TelemetryReplaySource
from repro.stream.stats import NodeStats, StreamStats
from repro.stream.watermark import BoundedLatenessWatermark

__all__ = [
    "BoundedLatenessWatermark",
    "NodeStats",
    "OnlineSpectral",
    "Operator",
    "RecordBatch",
    "StreamGraph",
    "StreamStats",
    "StreamingClusterAggregate",
    "StreamingCoarsen",
    "StreamingEdgeDetector",
    "StreamingPUE",
    "TelemetryReplaySource",
]
