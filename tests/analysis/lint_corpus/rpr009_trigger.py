"""RPR009 trigger: unpicklable fork payloads and a closure worker."""


def submit_bad(pool, manager):
    task = Task("job", manager)
    other = Task("job2", payload=lambda spec: spec)
    return pool.submit(task), other


def bad_worker(tasks):
    def handler(task):
        return task
    return run_tasks(handler, tasks)
