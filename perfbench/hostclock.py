"""Host-speed calibration: a fixed reference kernel timed between ops.

On a shared host the same op can take a quarter to a half longer from one
minute to the next, because other tenants load the physical cores. The
guest cannot see this: CPU time tracks wall time and steal time stays low.
So every run times ``reference_kernel`` right after each op, and the timing
metrics scale each op's wall time by ``REFERENCE_S`` over the kernel time
measured around it (``reference_seconds``). A scaled time reads as seconds at
the speed the host had when ``REFERENCE_S`` was measured.

The kernel is a fixed frame loop written in the package's style: small numpy
draws, dict-of-list slot maps and dict value updates. Host load slows that
kind of interpreter work much as it slows the package's ops. A plain integer
loop tracks those ops less closely. The kernel imports nothing from the
package, so a change to the package cannot move it.
"""

import statistics
from time import perf_counter

import numpy as np

#: Frames simulated by one reference_kernel call.
REFERENCE_FRAMES = 60
#: Median time of one reference_kernel call on a 2-vCPU Intel Xeon host.
REFERENCE_S = 0.006
#: Users and slots of a reference frame.
_USERS = _SLOTS = 10


def reference_kernel() -> int:
    """Simulate REFERENCE_FRAMES frames from a fixed seed; returns the number
    of users that were alone in some slot. Every call does the same work."""
    rng = np.random.default_rng(12345)
    values = {}
    alone_total = 0
    for frame in range(REFERENCE_FRAMES):
        degrees = rng.integers(1, 4, size=_USERS)
        slots = {}
        for user, degree in enumerate(degrees.tolist()):
            for slot in rng.choice(_SLOTS, size=degree, replace=False).tolist():
                slots.setdefault(slot, []).append(user)
        alone = {users[0] for users in slots.values() if len(users) == 1}
        for user in range(_USERS):
            key = (user, frame % 7)
            reward = 0.0 if user in alone else -1.0
            values[key] = values.get(key, 0.0) + 0.1 * (reward - values.get(key, 0.0))
        alone_total += len(alone)
    return alone_total


class HostClock:
    """Times reference_kernel calls and keeps every sample."""

    def __init__(self):
        self.samples = []

    def sample(self, seconds: float) -> float:
        """Call the kernel until the calls have taken at least ``seconds``;
        returns the mean time of these calls."""
        batch = []
        while True:
            t0 = perf_counter()
            reference_kernel()
            batch.append(perf_counter() - t0)
            if sum(batch) >= seconds:
                self.samples += batch
                return statistics.fmean(batch)


def reference_seconds(wall_s: list[float], kernel_s: list[float]) -> list[float]:
    """Scale op wall times to reference seconds.

    ``kernel_s[i]`` is the mean kernel time of the calls run right after op
    ``i``. Op ``i`` is scaled by the mean of ``kernel_s`` over ops i-1, i and
    i+1, weighted by their wall times, so the estimate brackets the op and a
    short op is not scaled by one or two noisy kernel calls alone.
    """
    scaled = []
    for i, wall in enumerate(wall_s):
        near = slice(max(0, i - 1), i + 2)
        weights = wall_s[near]
        kernel = sum(k * w for k, w in zip(kernel_s[near], weights)) / sum(weights)
        scaled.append(wall * REFERENCE_S / kernel)
    return scaled
