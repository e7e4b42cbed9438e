import pytest

from coefbound import schwarz


@pytest.fixture
def grid_points_scored(monkeypatch):
    """points(module, run, scan): the points scored in run()'s first call of ``module``'s own ``scan``.

    That first call is the exploration grid: y_bruteforce's polar_scan, or a
    search's plane_scan; the polish rounds call the same scan later.  A
    polar point is one schwarz._scores element, seed rows included, and a
    plane row that circle_max scores counts as its 3 points.
    """

    def points(module, run, scan="polar_scan"):
        sizes, calls = [], []
        scores, circle, grid_scan = schwarz._scores, schwarz.circle_max, getattr(module, scan)

        def counting_scores(*args):
            vals = scores(*args)
            if calls == [True]:
                sizes.append(vals.size)
            return vals

        def counting_circle(*args):
            out = circle(*args)
            if calls == [True]:
                sizes.append(3 * out[0].size)
            return out

        def grid(*args, **kwargs):
            calls.append(True)
            try:
                return grid_scan(*args, **kwargs)
            finally:
                calls.append(False)

        monkeypatch.setattr(schwarz, "_scores", counting_scores)
        monkeypatch.setattr(schwarz, "circle_max", counting_circle)
        monkeypatch.setattr(module, scan, grid)
        run()
        return sum(sizes)

    return points
