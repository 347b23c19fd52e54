"""RPR008 ok: session work runs under the fair token's run."""
# repro-lint: serve


def dispatch(token, session, verb, params):
    return token.run(session.id, session.execute, verb, params)


def reorder(token, session):
    # The owned manager, handed to the token rather than called inline.
    return token.run(session.id, session.manager.reorder)


def server_stats(sessions):
    aborts = 0
    for session in sessions:
        # Published plain-int counters, not the thread-owned manager.
        aborts += session.published_aborts
    return aborts


def close_session(session):
    aborts, degradations = session.close()
    return aborts + degradations
