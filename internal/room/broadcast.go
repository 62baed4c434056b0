package room

import "fmt"

// This file implements the "broadcasting" of the paper's future work
// (§6): one partner — the presenter — takes the floor, and every member's
// client mirrors the presenter's presentation instead of their own
// personalized view. Presentation choices by anyone else are rejected for
// the duration; content actions (annotations, chat, searches) remain open
// to all, as in a real case conference.

// Broadcast event kinds, appended after the base kinds. EvShutdown is
// the server-drain announcement: members receiving it know the room is
// about to close and no reconnect will find it.
const (
	EvBroadcastStart EventKind = iota + EvChat + 1
	EvBroadcastStop
	EvShutdown
)

// serverActor is the synthetic actor name server-originated events carry.
const serverActor = "system/server"

// AnnounceShutdown broadcasts the server-drain event to every member.
// It does not close the room — the drain sequence closes rooms only
// after in-flight handlers finish, so the announcement reaches clients
// while their connections are still up.
func (r *Room) AnnounceShutdown() {
	r.mu.Lock()
	defer r.unlock()
	if r.closed {
		return
	}
	r.broadcastLocked(Event{Actor: serverActor, Kind: EvShutdown}, false)
}

// StartBroadcast makes the named member the presenter. Fails if a
// broadcast is already running.
func (r *Room) StartBroadcast(presenter string) error {
	r.mu.Lock()
	defer r.unlock()
	if _, ok := r.members[presenter]; !ok {
		return fmt.Errorf("room %s: no member %q", r.Name, presenter)
	}
	if r.broadcaster != "" {
		return fmt.Errorf("room %s: %s is already broadcasting", r.Name, r.broadcaster)
	}
	r.broadcaster = presenter
	r.broadcastLocked(Event{Actor: presenter, Kind: EvBroadcastStart}, true)
	return nil
}

// StopBroadcast ends the broadcast; only the presenter may stop it. When
// the presenter leaves the room the broadcast ends automatically.
func (r *Room) StopBroadcast(presenter string) error {
	r.mu.Lock()
	defer r.unlock()
	if r.broadcaster == "" {
		return fmt.Errorf("room %s: no broadcast running", r.Name)
	}
	if r.broadcaster != presenter {
		return fmt.Errorf("room %s: %s is broadcasting, not %s", r.Name, r.broadcaster, presenter)
	}
	r.broadcaster = ""
	r.broadcastLocked(Event{Actor: presenter, Kind: EvBroadcastStop}, true)
	return nil
}

// viewerLocked names whose view a member is shown: the presenter's while
// a broadcast runs, its own otherwise. Caller holds r.mu.
func (r *Room) viewerLocked(member string) string {
	if r.broadcaster != "" {
		return r.broadcaster
	}
	return member
}

// checkFloorLocked rejects presentation changes by non-presenters while a
// broadcast is running. Caller holds r.mu.
func (r *Room) checkFloorLocked(actor string) error {
	if r.broadcaster != "" && actor != r.broadcaster {
		return fmt.Errorf("room %s: %s is broadcasting; presentation changes are theirs alone", r.Name, r.broadcaster)
	}
	return nil
}
