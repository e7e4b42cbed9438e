import pytest

from coefbound import schwarz


@pytest.fixture
def grid_points_scored(monkeypatch):
    """points(module, run): the points scored while run() is inside ``module``'s own polar_scan calls.

    A search's and y_bruteforce's only direct polar_scan call is their
    exploration grid; the polish calls it from within schwarz.  The count
    includes seed rows.
    """

    def points(module, run):
        sizes, inside = [], []
        scores, scan = schwarz._scores, module.polar_scan

        def counting(*args):
            vals = scores(*args)
            if inside:
                sizes.append(vals.size)
            return vals

        def grid(*args, **kwargs):
            inside.append(True)
            try:
                return scan(*args, **kwargs)
            finally:
                inside.clear()

        monkeypatch.setattr(schwarz, "_scores", counting)
        monkeypatch.setattr(module, "polar_scan", grid)
        run()
        return sum(sizes)

    return points
