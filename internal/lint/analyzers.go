package lint

// All returns every registered analyzer, in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		CtxPropagate,
		ErrWrap,
		FloatCmp,
		LockDiscipline,
		LockOrder,
		SyncErr,
	}
}
