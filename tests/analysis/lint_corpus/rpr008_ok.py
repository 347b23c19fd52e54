"""RPR008 ok: session work runs under the fair token's run."""
# repro-lint: serve


def dispatch(token, session, verb, params):
    return token.run(session.id, session.execute, verb, params)


def reorder(token, session):
    # The owned manager, handed to the token rather than called inline.
    return token.run(session.id, session.manager.reorder)


def server_stats(sessions):
    requests = 0
    for session in sessions:
        # The session's own plain-int counter, not the thread-owned
        # manager.
        requests += session.requests
    return requests


def close_session(session):
    session.close()
    return session.id
