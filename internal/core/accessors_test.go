package core

import (
	"maps"

	"mmconf/internal/cpnet"
)

// ViewerEnvironment returns a copy of one viewer's environment evidence.
func (e *Engine) ViewerEnvironment(viewer string) cpnet.Outcome {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := cpnet.Outcome{}
	if vw := e.viewers[viewer]; vw != nil {
		maps.Copy(out, vw.env)
	}
	return out
}
