package engine

// The kNN oracle's helpers, for its cluster variant in package
// engine_test.
var (
	KNNOracleTable    = knnOracleTable
	KNNOracleVariants = knnOracleVariants
	KNNOracleProbes   = knnOracleProbes
	KNNOracleQueries  = knnOracleQueries
	KNNDisagreement   = knnDisagreement
	RenderRows        = renderRows
)
