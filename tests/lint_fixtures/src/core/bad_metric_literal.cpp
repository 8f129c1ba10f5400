// Fixture: metric-name literals outside their registration site must fire
// `metric-literal`; this file is src/core/, which owns no metric prefix.
const char* kStrayEngineMetric = "engine.misses";        // expect: metric-literal
const char* kStrayStoreMetric = "store.mem.hits";        // expect: metric-literal
const char* kStrayPoolMetric = "pool.queue_depth";       // expect: metric-literal
const char* kStrayServeMetric = "serve.requests";        // expect: metric-literal
const char* kStrayOpMetric = "op.analyze.submitted";     // expect: metric-literal
const char* kStrayTraceKey = "solve_ms";                 // expect: metric-literal
const char* kStraySolverMetric = "solver.bb.nodes";      // expect: metric-literal
const char* kStraySloMetric = "slo.analyze.breach";      // expect: metric-literal
const char* kStrayFeatureKey = "ddg_width";              // expect: metric-literal

// Must NOT fire: non-metric dotted strings, file names, prose.
const char* kFileName = "store.cpp";
const char* kHostName = "service.example";
const char* kProse = "the engine. op counts live elsewhere";
const char* kSloPrefixAlone = "slo.";  // bare prefix is not a metric name
const char* kDdgProse = "ddg width exceeded";
