"""RPR009 ok: spec payloads and module-level workers."""


def spec_of(manager):
    return {"vars": manager.num_vars}


def submit_spec(pool, manager):
    # Spec conversion: the payload is the *result* of a call, pickled
    # fine; the manager itself stays on this side of the pipe.
    task = Task("job", payload=spec_of(manager))
    return pool.submit(task)


def worker(task):
    return task


def run(tasks):
    return run_tasks(worker, tasks)
