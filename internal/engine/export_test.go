package engine

// The kNN oracle's helpers, for its cluster variant in package
// engine_test.
var (
	KNNOracleRows    = knnOracleRows
	KNNOracleProbes  = knnOracleProbes
	KNNOracleQueries = knnOracleQueries
	KNNDisagreement  = knnDisagreement
	RenderRows       = renderRows
)
