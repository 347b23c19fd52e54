"""RPR008 trigger: session state escapes its connection thread and token."""
# repro-lint: serve
import threading

REGISTRY = None


def server_stats(sessions):
    total = 0
    for session in sessions:
        total += session.manager.stats.total_aborts
    return total


def inline_execute(session, verb, params):
    return session.execute(verb, params)


def spawn(session):
    worker = threading.Thread(target=run, args=(session,))
    worker.start()
    return worker


def publish(session):
    global REGISTRY
    REGISTRY = session


def run(session):
    return session._functions
