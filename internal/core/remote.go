package core

import (
	"fmt"

	"repro/internal/entity"
	"repro/internal/mapreduce"
)

// RemoteRunnableFor wraps a strategy's match job for worker-side
// execution. MatchJob erases the strategy's intermediate key/value
// types, and a worker must recover them to run typed attempts — this
// type switch is the closed enumeration of every concrete job shape the
// strategies build (one case per strategy).
func RemoteRunnableFor(j MatchJob) (mapreduce.RemoteRunnable, error) {
	switch jt := j.(type) {
	case *mapreduce.Job[AnnotatedEntity, int32, entity.Row, MatchOutput]:
		return mapreduce.NewRemoteRunnable(jt) // Basic
	case *mapreduce.Job[AnnotatedEntity, BSKey, entity.Row, MatchOutput]:
		return mapreduce.NewRemoteRunnable(jt) // BlockSplit
	case *mapreduce.Job[AnnotatedEntity, PRKey, entity.Row, MatchOutput]:
		return mapreduce.NewRemoteRunnable(jt) // PairRange
	default:
		return nil, fmt.Errorf("core: no remote execution support for match job type %T", j)
	}
}
