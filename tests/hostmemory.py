"""Whether this host refuses a memory request at once, touching no page.

A test that asks for an N x N array too large for the host checks this
first: where the kernel could grant the request, the array's first write
would page it in.
"""


def refused_outright(nbytes):
    """True if Linux refuses a request of `nbytes` before mapping it: under
    heuristic (0) or strict (2) overcommit, when it exceeds RAM and swap
    together.  False where that cannot be read, or under overcommit 1,
    which grants any request."""
    try:
        with open("/proc/sys/vm/overcommit_memory") as f:
            mode = f.read().strip()
        with open("/proc/meminfo") as f:
            sizes = {line.split(":")[0]: int(line.split()[1]) * 1024
                     for line in f if line.rstrip().endswith(" kB")}
    except (OSError, ValueError):
        return False
    return mode in ("0", "2") and nbytes > sizes["MemTotal"] + sizes.get("SwapTotal", 0)
