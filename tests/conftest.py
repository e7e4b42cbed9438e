import pytest

from coefbound import schwarz


@pytest.fixture
def grid_points_scored(monkeypatch):
    """points(module, run): the points scored in run()'s first call of ``module``'s own polar_scan.

    That first call is y_bruteforce's exploration grid; the polish rounds
    call the same scan later.  A point is one schwarz._scores element, seed
    rows included.
    """

    def points(module, run):
        sizes, calls = [], []
        scores, grid_scan = schwarz._scores, module.polar_scan

        def counting_scores(*args):
            vals = scores(*args)
            if calls == [True]:
                sizes.append(vals.size)
            return vals

        def grid(*args, **kwargs):
            calls.append(True)
            try:
                return grid_scan(*args, **kwargs)
            finally:
                calls.append(False)

        monkeypatch.setattr(schwarz, "_scores", counting_scores)
        monkeypatch.setattr(module, "polar_scan", grid)
        run()
        return sum(sizes)

    return points
