"""Error kinds: the machine-readable name every error reports."""

import inspect

from mfboundary import errors
from mfboundary.errors import MFBoundaryError

SUBCLASSES = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
              if issubclass(cls, MFBoundaryError) and cls is not MFBoundaryError]


def test_every_error_reports_its_class_name():
    assert len(SUBCLASSES) >= 15  # the walk found them
    for cls in SUBCLASSES:
        assert cls("boom").payload() == {"error": cls.__name__, "message": "boom"}


def test_the_base_class_reports_error():
    assert MFBoundaryError("boom").payload() == {"error": "Error", "message": "boom"}
