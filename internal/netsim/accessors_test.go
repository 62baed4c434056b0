package netsim

// IsInjected reports whether err came from a netsim fault injection.
func IsInjected(err error) bool {
	_, ok := err.(errInjected)
	return ok
}

// ProfileByName returns the preset with the given name, or false.
func ProfileByName(name string) (Profile, bool) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}
